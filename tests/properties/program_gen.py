"""Random MiniC program generation for property-based tests.

Programs are valid-by-construction: statements draw from typed pools
(int globals, int* globals, int** globals), loops and recursion are
bounded, and locks are emitted in balanced pairs — so the concrete
interpreter always terminates and the frontend always accepts the
source.
"""

from __future__ import annotations

from typing import List

from hypothesis import strategies as st

N_INTS = 4      # g0..g3 : int
N_PTRS = 4      # p0..p3 : int*
N_PPTRS = 2     # pp0..pp1 : int**
N_NODES = 2     # h0..h1 : struct node*  (node: {int *f; struct node *n;})


SYNC_FREE_KINDS = ["addr", "copy", "store_pp", "load_pp", "deref_write",
                   "deref_read", "null", "branch", "loop", "heap_new",
                   "field_write", "field_read", "link", "walk"]
SYNC_KINDS = ["lockblock", "waitblock", "signal"]


@st.composite
def statements(draw, depth: int = 0, allow_loops: bool = True,
               counter: List[int] = None, sync: bool = True) -> List[str]:
    """A list of statement strings for one block. ``counter`` makes
    loop variable names unique within a function (MiniC has no block
    scoping). ``sync=False`` leaves out locks, waits and signals."""
    if counter is None:
        counter = [0]
    count = draw(st.integers(min_value=1, max_value=5))
    stmts: List[str] = []
    kinds = SYNC_FREE_KINDS + SYNC_KINDS if sync else SYNC_FREE_KINDS
    for _ in range(count):
        kind = draw(st.sampled_from(kinds))
        if kind == "addr":
            p = draw(st.integers(0, N_PTRS - 1))
            g = draw(st.integers(0, N_INTS - 1))
            stmts.append(f"p{p} = &g{g};")
        elif kind == "copy":
            a = draw(st.integers(0, N_PTRS - 1))
            b = draw(st.integers(0, N_PTRS - 1))
            stmts.append(f"p{a} = p{b};")
        elif kind == "store_pp":
            pp = draw(st.integers(0, N_PPTRS - 1))
            p = draw(st.integers(0, N_PTRS - 1))
            stmts.append(f"pp{pp} = &p{p};")
        elif kind == "load_pp":
            a = draw(st.integers(0, N_PTRS - 1))
            pp = draw(st.integers(0, N_PPTRS - 1))
            stmts.append(f"p{a} = *pp{pp};")
        elif kind == "deref_write":
            pp = draw(st.integers(0, N_PPTRS - 1))
            p = draw(st.integers(0, N_PTRS - 1))
            stmts.append(f"*pp{pp} = p{p};")
        elif kind == "deref_read":
            p = draw(st.integers(0, N_PTRS - 1))
            g = draw(st.integers(0, N_INTS - 1))
            stmts.append(f"if (p{p} != null) {{ g{g} = *p{p}; }}")
        elif kind == "null":
            p = draw(st.integers(0, N_PTRS - 1))
            stmts.append(f"p{p} = null;")
        elif kind == "heap_new":
            h = draw(st.integers(0, N_NODES - 1))
            stmts.append(f"h{h} = malloc(struct node);")
        elif kind == "field_write":
            h = draw(st.integers(0, N_NODES - 1))
            p = draw(st.integers(0, N_PTRS - 1))
            stmts.append(f"if (h{h} != null) {{ h{h}->f = p{p}; }}")
        elif kind == "field_read":
            h = draw(st.integers(0, N_NODES - 1))
            p = draw(st.integers(0, N_PTRS - 1))
            stmts.append(f"if (h{h} != null) {{ p{p} = h{h}->f; }}")
        elif kind == "link":
            a = draw(st.integers(0, N_NODES - 1))
            b = draw(st.integers(0, N_NODES - 1))
            stmts.append(f"if (h{a} != null) {{ h{a}->n = h{b}; }}")
        elif kind == "walk":
            a = draw(st.integers(0, N_NODES - 1))
            b = draw(st.integers(0, N_NODES - 1))
            stmts.append(f"if (h{a} != null) {{ h{b} = h{a}->n; }}")
        elif kind == "branch" and depth < 2:
            then_body = draw(statements(depth=depth + 1, allow_loops=allow_loops,
                                        counter=counter, sync=sync))
            else_body = draw(statements(depth=depth + 1, allow_loops=allow_loops,
                                        counter=counter, sync=sync))
            g = draw(st.integers(0, N_INTS - 1))
            stmts.append("if (g%d < 2) { %s } else { %s }"
                         % (g, " ".join(then_body), " ".join(else_body)))
        elif kind == "loop" and allow_loops and depth < 2:
            body = draw(statements(depth=depth + 1, allow_loops=False,
                                   counter=counter, sync=sync))
            var = f"i{counter[0]}"
            counter[0] += 1
            stmts.append("for (int %s = 0; %s < 2; %s = %s + 1) { %s }"
                         % (var, var, var, var, " ".join(body)))
        elif kind == "lockblock" and depth < 2:
            body = draw(statements(depth=depth + 1, allow_loops=False,
                                   counter=counter))
            stmts.append("lock(&mu); %s unlock(&mu);" % " ".join(body))
        elif kind == "waitblock" and depth < 2:
            # cond_wait under the spurious-wakeup model: release +
            # re-acquire inside a critical section.
            before = draw(statements(depth=depth + 1, allow_loops=False,
                                     counter=counter))
            after = draw(statements(depth=depth + 1, allow_loops=False,
                                    counter=counter))
            stmts.append("lock(&mu); %s wait(&cv, &mu); %s unlock(&mu);"
                         % (" ".join(before), " ".join(after)))
        elif kind == "signal":
            stmts.append(draw(st.sampled_from(
                ["signal(&cv);", "broadcast(&cv);"])))
    return stmts


def _globals_header() -> str:
    lines = ["struct node { int *f; struct node *n; };", "mutex_t mu;",
             "cond_t cv;"]
    for i in range(N_INTS):
        lines.append(f"int g{i};")
    for i in range(N_PTRS):
        lines.append(f"int *p{i};")
    for i in range(N_PPTRS):
        lines.append(f"int **pp{i};")
    for i in range(N_NODES):
        lines.append(f"struct node *h{i};")
    return "\n".join(lines)


@st.composite
def sequential_programs(draw) -> str:
    """A single-threaded random program."""
    helper_body = draw(statements(counter=[0]))
    main_body = draw(statements(counter=[100]))
    call_helper = draw(st.booleans())
    parts = [_globals_header()]
    parts.append("void helper() { %s }" % " ".join(helper_body))
    body = " ".join(main_body)
    if call_helper:
        body += " helper();"
    parts.append("int main() { %s return 0; }" % body)
    return "\n".join(parts)


@st.composite
def single_function_programs(draw) -> str:
    """No calls at all — the ground for exact sparse == data-flow
    equivalence checks."""
    main_body = draw(statements(counter=[0]))
    return "%s\nint main() { %s return 0; }" % (_globals_header(),
                                                " ".join(main_body))


#: Helper shapes a multithreaded program may call, from main and from
#: every worker: the definitions (bodies drawn sync-free) and the
#: statements that call them.
HELPER_SHAPES = {
    # One sync-free helper, called outside and inside the lock.
    "shared": (["void helper() { %s }"],
               "helper(); lock(&mu); helper(); unlock(&mu);"),
    # A helper that locks internally, so it stays context-expanded.
    "locking": (["void locked_helper() { lock(&mu); %s unlock(&mu); }"],
                "locked_helper();"),
    # Recursion through a sync-free helper, bounded by a global count.
    "recursive": (["void rec() { if (depth < 3) { depth = depth + 1; "
                   "rec_step(); } }",
                   "void rec_step() { %s rec(); }"],
                  "rec();"),
    # A sync-free call chain inside a lock span.
    "chain": (["void chain() { %s chain_leaf(); }",
               "void chain_leaf() { %s }"],
              "lock(&mu); chain(); unlock(&mu);"),
}


@st.composite
def multithreaded_programs(draw) -> str:
    """Main plus up to two worker threads, optional joins, and calls
    to a drawn subset of the :data:`HELPER_SHAPES`."""
    parts = [_globals_header(), "int depth;"]
    shapes = sorted(draw(st.sets(st.sampled_from(sorted(HELPER_SHAPES)))))
    calls = " ".join(HELPER_SHAPES[shape][1] for shape in shapes)
    for shape in shapes:
        for definition in HELPER_SHAPES[shape][0]:
            if "%s" in definition:
                # Shallow bodies: these shapes exercise call structure.
                body = draw(statements(depth=1, allow_loops=False,
                                       counter=[0], sync=False))
                definition %= " ".join(body)
            parts.append(definition)

    def with_calls(body: List[str]) -> str:
        if draw(st.booleans()):
            return " ".join([calls] + body)
        return " ".join(body + [calls])

    n_workers = draw(st.integers(min_value=1, max_value=2))
    for w in range(n_workers):
        body = draw(statements(counter=[0]))
        parts.append("void *worker%d(void *arg) { %s return null; }"
                     % (w, with_calls(body)))
    main_counter = [0]
    pre = draw(statements(counter=main_counter))
    mid = with_calls(draw(statements(counter=main_counter)))
    post = draw(statements(counter=main_counter))
    join_style = draw(st.sampled_from(["all", "none", "partial"]))
    body_lines = [" ".join(pre)]
    for w in range(n_workers):
        body_lines.append(f"fork(&t{w}, worker{w}, null);")
    body_lines.append(mid)
    if join_style == "all":
        for w in range(n_workers):
            body_lines.append(f"join(t{w});")
    elif join_style == "partial":
        body_lines.append("join(t0);")
    body_lines.append(" ".join(post))
    decls = " ".join(f"thread_t t{w};" for w in range(n_workers))
    parts.append("int main() { %s %s return 0; }" % (decls, " ".join(body_lines)))
    return "\n".join(parts)


#: Pointer-passing helpers in :func:`argument_passing_programs`:
#: ``int *pass<i>(int *a, int *b)``, each free to call the ones
#: numbered below it.
N_PASS = 2


@st.composite
def _pointer_arg(draw, params: List[str]) -> str:
    """A call or fork argument: a parameter, a pointer global's value
    or a global's address."""
    choices = params + [f"p{i}" for i in range(N_PTRS)] \
        + [f"&g{j}" for j in range(N_INTS)]
    return draw(st.sampled_from(choices))


@st.composite
def _pass_call(draw, callees: List[str], params: List[str]) -> str:
    callee = draw(st.sampled_from(callees))
    first = draw(_pointer_arg(params))
    second = draw(_pointer_arg(params))
    dst = draw(st.sampled_from(params + [f"p{i}" for i in range(N_PTRS)]))
    return f"{dst} = {callee}({first}, {second});"


@st.composite
def _param_statements(draw, params: List[str],
                      callees: List[str]) -> List[str]:
    """Statements that move pointers between *params*, the pointer
    globals and memory, and call *callees* with them."""
    stmts: List[str] = []
    kinds = ["to_global", "from_global", "move", "deref", "store_pp",
             "load_pp", "addr"] + (["call"] * 2 if callees else [])
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.sampled_from(params))
        p = draw(st.integers(0, N_PTRS - 1))
        g = draw(st.integers(0, N_INTS - 1))
        pp = draw(st.integers(0, N_PPTRS - 1))
        if kind == "to_global":
            stmts.append(f"p{p} = {a};")
        elif kind == "from_global":
            stmts.append(f"{a} = p{p};")
        elif kind == "move":
            stmts.append(f"{a} = {draw(st.sampled_from(params))};")
        elif kind == "deref":
            stmts.append(f"if ({a} != null) {{ g{g} = *{a}; }}")
        elif kind == "store_pp":
            stmts.append(f"*pp{pp} = {a};")
        elif kind == "load_pp":
            stmts.append(f"{a} = *pp{pp};")
        elif kind == "addr":
            stmts.append(f"{a} = &g{g};")
        else:
            stmts.append(draw(_pass_call(callees, params)))
    return stmts


@st.composite
def argument_passing_programs(draw) -> str:
    """Main plus one or two workers that pass pointers across calls
    and forks: the helpers take and return ``int *``, and every call
    and fork passes a ``p<i>`` or ``&g<j>`` argument, so the program
    has interprocedural copies (argument to parameter, return value to
    call result, fork argument to the routine's parameter)."""
    parts = [_globals_header()]
    helpers = [f"pass{i}" for i in range(N_PASS)]
    for i, name in enumerate(helpers):
        body = draw(_param_statements(["a", "b"], helpers[:i]))
        ret = draw(st.sampled_from(["a", "b"]))
        parts.append("int *%s(int *a, int *b) { %s return %s; }"
                     % (name, " ".join(body), ret))
    n_workers = draw(st.integers(min_value=1, max_value=2))
    for w in range(n_workers):
        body = draw(_param_statements(["w"], helpers))
        parts.append("void *worker%d(void *arg) { int *w; w = arg; %s "
                     "return null; }" % (w, " ".join(body)))
    main_counter = [0]
    body_lines = [" ".join(draw(statements(counter=main_counter,
                                           sync=False))),
                  draw(_pass_call(helpers, []))]
    for w in range(n_workers):
        body_lines.append("fork(&t%d, worker%d, %s);"
                          % (w, w, draw(_pointer_arg([]))))
    body_lines.append(draw(_pass_call(helpers, [])))
    if draw(st.booleans()):
        body_lines.extend(f"join(t{w});" for w in range(n_workers))
    body_lines.append(" ".join(draw(statements(counter=main_counter,
                                               sync=False))))
    decls = " ".join(f"thread_t t{w};" for w in range(n_workers))
    parts.append("int main() { %s %s return 0; }"
                 % (decls, " ".join(body_lines)))
    return "\n".join(parts)
