"""CLI smoke tests (driving repro.cli.main directly)."""

import json

import pytest

from repro.cli import main

SAMPLE = """
mutex_t mu;
int g;
int *shared;
int *c;
void *w(void *arg) { shared = &g; return null; }
int main() {
    thread_t t;
    fork(&t, w, null);
    c = shared;
    join(t);
    return 0;
}
"""

ABBA = """
mutex_t la; mutex_t lb;
int g; int *p;
void *t1_fn(void *arg) { lock(&la); lock(&lb); p = &g; unlock(&lb); unlock(&la); return null; }
void *t2_fn(void *arg) { lock(&lb); lock(&la); p = &g; unlock(&la); unlock(&lb); return null; }
int main() {
    thread_t a; thread_t b;
    fork(&a, t1_fn, null); fork(&b, t2_fn, null);
    join(a); join(b);
    return 0;
}
"""


def _serve(tmp_path, monkeypatch, lines, *flags):
    """``main(["serve", *flags])`` with *lines* on stdin (a real file:
    serve reads its descriptor)."""
    path = tmp_path / "stdin.jsonl"
    path.write_text(lines)
    with path.open() as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        return main(["serve", *flags])


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.mc"
    path.write_text(SAMPLE)
    return str(path)


@pytest.fixture
def abba(tmp_path):
    path = tmp_path / "abba.mc"
    path.write_text(ABBA)
    return str(path)


class TestCLI:
    def test_analyze_text(self, sample, capsys):
        assert main(["analyze", sample]) == 0
        out = capsys.readouterr().out
        assert "points-to at loads" in out
        assert "shared" in out

    def test_analyze_json(self, sample, capsys):
        assert main(["analyze", sample, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stats" in payload and "loads" in payload
        assert any("g" in l["pts"] for l in payload["loads"])

    def test_races_exit_code(self, sample, capsys):
        assert main(["races", sample]) == 2  # the unprotected pair
        assert "race" in capsys.readouterr().out

    def test_deadlocks(self, abba, capsys):
        assert main(["deadlocks", abba]) == 2
        assert "lock-order cycle" in capsys.readouterr().out

    def test_deadlocks_json(self, abba, capsys):
        assert main(["deadlocks", abba, "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["first"] in ("la", "lb")

    def test_tsan(self, sample, capsys):
        assert main(["tsan", sample]) == 0
        assert "instrumentation avoided" in capsys.readouterr().out

    def test_escape(self, sample, capsys):
        assert main(["escape", sample]) == 0
        out = capsys.readouterr().out
        assert "shared: shared" in out

    def test_threads(self, sample, capsys):
        assert main(["threads", sample]) == 0
        out = capsys.readouterr().out
        assert "abstract thread" in out
        assert "states=" in out

    def test_ir_dump(self, sample, capsys):
        assert main(["ir", sample]) == 0
        assert "define main" in capsys.readouterr().out

    def test_dot_outputs(self, sample, capsys):
        for what in ("dug", "icfg", "threads"):
            assert main(["dot", sample, "--what", what]) == 0
            assert "digraph" in capsys.readouterr().out

    def test_compare(self, sample, capsys):
        assert main(["compare", sample]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_ablation_flags(self, sample, capsys):
        assert main(["analyze", sample, "--no-lock", "--no-interleaving"]) == 0

    def test_analyze_profile_times_every_layer_group(self, sample,
                                                     tmp_path, capsys):
        # The frontend is the same compile phase a service span
        # records, split into its stages; the schedule build nests
        # under the solve.
        out = tmp_path / "profile.json"
        assert main(["analyze", sample, "--profile", str(out)]) == 0
        phases = json.loads(out.read_text())["phases"]
        assert [p["name"] for p in phases] == [
            "compile", "pre_analysis", "icfg", "thread_oblivious_dug",
            "thread_model", "interleaving", "lock_analysis", "value_flow",
            "sparse_solve"]
        assert [c["name"] for c in phases[0]["children"]] == [
            "parse", "lower", "mem2reg", "verify"]
        assert [c["name"] for c in phases[-1]["children"]] == ["schedule"]

    def test_analyze_json_phase_times_from_tree(self, sample, capsys):
        assert main(["analyze", sample, "--json"]) == 0
        times = json.loads(capsys.readouterr().out)["stats"]["phase_times"]
        assert list(times)[0] == "compile"
        assert "sparse_solve" in times and "schedule" not in times


FIG1A = """
int x; int y; int z;
int *p = &x;
int *q = &y;
int *r = &z;
int *c;
void foo(void *arg) {
    *p = q;
}
int main() {
    thread_t t;
    fork(&t, foo, null);
    *p = r;
    c = *p;
    return 0;
}
"""


@pytest.fixture
def fig1a(tmp_path):
    path = tmp_path / "fig1a.mc"
    path.write_text(FIG1A)
    return str(path)


class TestTracingCLI:
    def test_explain_variable(self, fig1a, capsys):
        assert main(["explain", fig1a, "c"]) == 0
        out = capsys.readouterr().out
        assert "THREAD-VF" in out
        assert "MHP" in out
        assert "P-ADDR" in out

    def test_explain_variable_restricted_to_object(self, fig1a, capsys):
        assert main(["explain", fig1a, "c", "--obj", "z"]) == 0
        out = capsys.readouterr().out
        assert "z in" in out
        assert "THREAD-VF" not in out

    def test_explain_unknown_fact_fails(self, fig1a, capsys):
        assert main(["explain", fig1a, "c", "--obj", "nothing"]) == 1
        assert "no recorded fact" in capsys.readouterr().out

    def test_explain_line_and_target(self, fig1a, capsys):
        # The load on line 14 sees y through the recorded [THREAD-VF]
        # chain, which goes on to its AddrOf root.
        assert main(["explain", fig1a, "--line", "14", "--target", "y"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("why y in pt(")
        assert any("via [THREAD-VF] edge" in line for line in lines)
        assert any("admitted: MHP" in line for line in lines)
        assert lines[-1].endswith("<- root")

    def test_explain_line_without_fact_fails(self, fig1a, capsys):
        assert main(["explain", fig1a, "--line", "14", "--target", "q"]) == 1
        assert "no load at line 14 reads 'q'" in capsys.readouterr().out

    def test_explain_without_var_or_line_errors(self, fig1a, capsys):
        assert main(["explain", fig1a]) == 2

    def test_trace_stdout_validates(self, fig1a, capsys):
        from repro.trace import validate_trace_jsonl
        assert main(["trace", fig1a]) == 0
        out = capsys.readouterr().out
        assert validate_trace_jsonl(out) > 0

    def test_trace_to_file(self, fig1a, tmp_path, capsys):
        from repro.trace import validate_trace_jsonl
        out_path = tmp_path / "out.jsonl"
        assert main(["trace", fig1a, "--out", str(out_path)]) == 0
        assert validate_trace_jsonl(out_path.read_text()) > 0
        assert "derive" in capsys.readouterr().out

    def test_trace_flag_on_analyze(self, fig1a, tmp_path):
        from repro.trace import validate_trace_jsonl
        out_path = tmp_path / "t.jsonl"
        assert main(["analyze", fig1a, "--trace", str(out_path)]) == 0
        assert validate_trace_jsonl(out_path.read_text()) > 0

    def test_diff_profile(self, fig1a, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["stats", fig1a, "--profile", str(a)]) == 0
        assert main(["stats", fig1a, "--profile", str(b)]) == 0
        capsys.readouterr()
        assert main(["diff-profile", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "sparse_solve" in out

    def test_diff_profile_json(self, fig1a, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert main(["stats", fig1a, "--profile", str(a)]) == 0
        capsys.readouterr()
        assert main(["diff-profile", str(a), str(a), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counter_drift"] == {}
        assert {p["status"] for p in payload["phases"]} == {"common"}

    def test_stats_chrome(self, fig1a, capsys):
        assert main(["stats", fig1a, "--chrome"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in payload["traceEvents"]}
        assert "sparse_solve" in names


class TestSubcommandSmoke:
    """One exit-code + stdout-shape check per ``repro`` subcommand.

    The deeper behaviour of each command is pinned by the classes
    above (and tests/service/); this class exists so that *every*
    ``cmd_*`` handler has at least one direct test and a new
    subcommand without one is conspicuous."""

    def test_analyze(self, sample, capsys):
        assert main(["analyze", sample]) == 0
        assert "points-to at loads" in capsys.readouterr().out

    def test_races(self, sample, capsys):
        assert main(["races", sample]) == 2
        assert "race candidate" in capsys.readouterr().out

    def test_deadlocks(self, abba, capsys):
        assert main(["deadlocks", abba]) == 2
        assert "deadlock" in capsys.readouterr().out

    def test_tsan(self, sample, capsys):
        assert main(["tsan", sample]) == 0
        assert "accesses" in capsys.readouterr().out

    def test_escape(self, sample, capsys):
        assert main(["escape", sample]) == 0
        assert "thread-local" in capsys.readouterr().out

    def test_threads(self, sample, capsys):
        assert main(["threads", sample]) == 0
        assert "abstract thread" in capsys.readouterr().out

    def test_ir(self, sample, capsys):
        assert main(["ir", sample]) == 0
        assert "define" in capsys.readouterr().out

    def test_dot(self, sample, capsys):
        assert main(["dot", sample]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_explain(self, fig1a, capsys):
        assert main(["explain", fig1a, "c"]) == 0
        assert "P-ADDR" in capsys.readouterr().out

    def test_trace(self, fig1a, capsys):
        assert main(["trace", fig1a]) == 0
        assert '"schema"' in capsys.readouterr().out

    def test_diff_profile(self, fig1a, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert main(["stats", fig1a, "--profile", str(a)]) == 0
        capsys.readouterr()
        assert main(["diff-profile", str(a), str(a)]) == 0
        assert "profile diff" in capsys.readouterr().out

    def test_compare(self, sample, capsys):
        assert main(["compare", sample]) == 0
        assert "NONSPARSE" in capsys.readouterr().out

    def test_stats(self, sample, capsys):
        assert main(["stats", sample]) == 0
        out = capsys.readouterr().out
        assert "sparse_solve" in out
        assert "compile" in out and "schedule" in out

    def test_bench(self, capsys):
        assert main(["bench", "--table", "1"]) == 0
        assert "word_count" in capsys.readouterr().out

    def test_batch(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"requests": [{"workload": "word_count"}]}))
        assert main(["batch", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "batch spec.json" in out
        assert "word_count" in out

    def test_serve(self, tmp_path, monkeypatch, capsys):
        assert _serve(tmp_path, monkeypatch,
                      '{"workload": "word_count"}\n') == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["body"]["status"] == "ok"

    def test_report(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"requests": [{"workload": "word_count"}]}))
        out_path = tmp_path / "batch.json"
        assert main(["batch", str(spec), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "pool.run_seconds" in out


#: (subcommand, flag) pairs whose handler never reads the flag, with
#: the value the flag would take.
UNREAD_FLAGS = (
    [(command, ["--trace", "out.jsonl"])
     for command in ("races", "deadlocks", "tsan", "compare", "escape",
                     "ir")]
    + [(command, flag)
       for command in ("escape", "ir")
       for flag in (["--profile", "p.json"], ["--budget", "5"],
                    ["--no-interleaving"], ["--no-value-flow"],
                    ["--no-lock"])]
    + [(command, ["--json"])
       for command in ("ir", "threads", "dot", "explain", "trace",
                       "compare")]
)


class TestUnreadFlags:
    """Each file subcommand accepts only the flags its handler reads:
    an unread one fails in argparse rather than being silently
    ignored (a ``--trace OUT`` that writes nothing, say)."""

    @pytest.mark.parametrize(
        "command, flag", UNREAD_FLAGS,
        ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS])
    def test_unread_flag_is_refused(self, sample, tmp_path, monkeypatch,
                                    capsys, command, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, sample, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_query_has_no_cache(self, sample, tmp_path, capsys):
        # No query answer is stored on disk, so there is no directory
        # to name.
        with pytest.raises(SystemExit) as exc:
            main(["query", sample, "g", "--cache", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


#: ``stats`` flags that steer a run, with the value each would take.
STATS_RUN_FLAGS = (["--trace", "t.jsonl"], ["--profile", "p2.json"],
                   ["--budget", "0"], ["--no-interleaving"],
                   ["--no-value-flow"], ["--no-lock"])


class TestStatsOnSavedProfile:
    """``repro stats prof.json`` only renders the profile, so a flag
    that steers a run is refused rather than silently ignored."""

    @pytest.fixture()
    def saved(self, fig1a, tmp_path, capsys):
        path = tmp_path / "prof.json"
        assert main(["stats", fig1a, "--profile", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    @pytest.mark.parametrize("flag", STATS_RUN_FLAGS,
                             ids=[f[0] for f in STATS_RUN_FLAGS])
    def test_run_flag_is_refused(self, saved, tmp_path, monkeypatch,
                                 capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert main(["stats", saved, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert flag[0] in captured.err
        assert not (tmp_path / "t.jsonl").exists()
        assert not (tmp_path / "p2.json").exists()

    @pytest.mark.parametrize("flag", ["--json", "--csv", "--chrome"])
    def test_render_flags_still_work(self, saved, capsys, flag):
        assert main(["stats", saved, flag]) == 0
        assert capsys.readouterr().out


class TestBatchServeCLI:
    """Deeper ``repro batch`` / ``repro serve`` behaviour."""

    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "cache": str(tmp_path / "cache"),
            "requests": [{"workload": "word_count"},
                         {"workload": "kmeans"}],
        }))
        return str(path)

    def test_cold_then_warm_json(self, spec, capsys):
        assert main(["batch", spec, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["aggregate"]["solver_iterations"] > 0
        assert main(["batch", spec, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["aggregate"]["solver_iterations"] == 0
        assert warm["counters"]["batch.cache_hits"] == 2

    def test_workers_flag_overrides_spec(self, spec, capsys):
        assert main(["batch", spec, "--workers", "2"]) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_csv_output(self, spec, capsys):
        assert main(["batch", spec, "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,digest,status")
        assert "word_count" in out

    def test_report_written_to_file(self, spec, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["batch", spec, "--out", str(out_path)]) == 0
        from repro.service import validate_batch_report
        validate_batch_report(json.loads(out_path.read_text()))

    def test_degraded_batch_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "doomed.json"
        spec.write_text(json.dumps({"requests": [
            {"workload": "raytrace",
             "config": {"time_budget": 1e-9}}]}))
        assert main(["batch", str(spec)]) == 3
        assert "degraded" in capsys.readouterr().out

    def test_failed_request_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text(json.dumps({"requests": [
            {"workload": "word_count"},
            {"source": "int main( { return 0; }", "name": "bad"}]}))
        assert main(["batch", str(spec)]) == 3
        assert "error" in capsys.readouterr().out

    def test_file_entry_relative_to_spec(self, tmp_path, capsys):
        (tmp_path / "tiny.mc").write_text("int main() { return 0; }")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"requests": [{"file": "tiny.mc"}]}))
        assert main(["batch", str(spec)]) == 0
        assert "tiny.mc" in capsys.readouterr().out

    def test_serve_with_cache(self, tmp_path, monkeypatch, capsys):
        # A second session on the same cache answers from disk.
        caches = []
        for request_id in (1, 2):
            assert _serve(tmp_path, monkeypatch,
                          '{"workload": "word_count", "id": %d}\n'
                          % request_id,
                          "--cache", str(tmp_path / "c")) == 0
            frame = json.loads(capsys.readouterr().out)
            assert frame["id"] == request_id
            caches.append(frame["body"]["cache"])
        assert caches == ["miss", "hit"]

    def test_batch_slow_ms_captures_exemplars(self, spec, capsys):
        assert main(["batch", spec, "--slow-ms", "0"]) == 0
        out = capsys.readouterr().out
        assert "slow-request exemplars" in out
        assert "r0000" in out

    def test_serve_metrics_stream(self, tmp_path, monkeypatch, capsys):
        from repro.obs import validate_metrics_stream
        metrics_path = tmp_path / "metrics.jsonl"
        assert _serve(tmp_path, monkeypatch,
                      '{"workload": "word_count"}\n'
                      '{"workload": "word_count"}\n',
                      "--cache", str(tmp_path / "c"),
                      "--metrics-interval", "0",
                      "--metrics-out", str(metrics_path)) == 0
        docs = [json.loads(line)
                for line in metrics_path.read_text().splitlines()]
        validate_metrics_stream(docs)
        assert len(docs) >= 2
        assert docs[-1]["counters"]["gateway.requests"] == 2
        capsys.readouterr()
        assert main(["report", str(metrics_path)]) == 0
        assert "telemetry report" in capsys.readouterr().out


class TestBatchSpecErrors:
    """A bad batch spec or flag fails fast, with one line and exit 2."""

    @pytest.mark.parametrize("spec", [
        {"workers": "two", "requests": [{"workload": "word_count"}]},
        {"workers": 2, "timeout": "5",
         "requests": [{"workload": "word_count"}]},
        {"workers": 0, "requests": [{"workload": "word_count"}]},
        {"cache": 5, "requests": [{"workload": "word_count"}]},
        {"requests": [{"workload": "word_count", "timeout": True}]},
        {"requests": []},
        {"requests": [{"workload": "nope"}]},
        {"requests": [{"workload": "raytrace", "scale": 8000}]},
        {"requests": [{"workload": "word_count", "scale": True}]},
    ], ids=["workers-string", "timeout-string", "workers-zero",
            "cache-number", "entry-timeout-bool", "no-requests",
            "unknown-workload", "scale-over-bound", "scale-bool"])
    def test_bad_spec_is_one_line(self, tmp_path, monkeypatch, capsys,
                                  spec):
        def no_session(*args, **kwargs):
            raise AssertionError("a shard session started")

        monkeypatch.setattr("repro.service.run_batch", no_session)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro batch: {path}: ")
        assert err.count("\n") == 1

    def test_missing_spec_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["batch", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"repro batch: {path}: ")

    @pytest.mark.parametrize("argv", [
        ["batch", "spec.json", "--workers", "0"],
        ["batch", "spec.json", "--timeout", "-1"],
        ["serve", "--workers", "0"],
        ["serve", "--timeout", "-1"],
        ["gateway", "--workers", "two"],
        ["gateway", "--timeout", "0"],
    ], ids=["batch-workers", "batch-timeout", "serve-workers",
            "serve-timeout", "gateway-workers", "gateway-timeout"])
    def test_bad_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "not a positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["batch", "spec.json", "--cache-max-mb", "-1"],
        ["batch", "spec.json", "--cache-max-mb", "inf"],
        ["serve", "--cache-max-mb", "-1"],
        ["gateway", "--cache-max-mb", "-1"],
        ["serve", "--max-request-bytes", "-5"],
        ["serve", "--max-request-bytes", "0"],
        ["gateway", "--max-request-bytes", "0"],
        ["gateway", "--max-queue", "0"],
        ["batch", "spec.json", "--no-incremental"],
        ["serve", "--no-incremental"],
        ["gateway", "--no-incremental"],
    ], ids=["batch-cache-max-mb", "batch-cache-max-mb-inf",
            "serve-cache-max-mb", "gateway-cache-max-mb",
            "serve-max-request-bytes", "serve-max-request-bytes-zero",
            "gateway-max-request-bytes", "gateway-max-queue",
            "batch-no-incremental", "serve-no-incremental",
            "gateway-no-incremental"])
    def test_bad_service_flag_is_one_line(self, tmp_path, monkeypatch,
                                          capsys, argv):
        def no_session(*args, **kwargs):
            raise AssertionError("a shard session started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repro.service.run_batch", no_session)
        monkeypatch.setattr("repro.cli._run_gateway", no_session)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if ": error: " in line]
        assert len(errors) == 1 and flag in errors[0]

    def test_service_flag_floors_are_accepted(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["gateway", "--cache-max-mb", "0", "--max-request-bytes", "1",
             "--max-queue", "1"])
        assert (args.cache_max_mb, args.max_request_bytes,
                args.max_queue) == (0.0, 1, 1)


class TestSourceDiagnostics:
    """A MiniC diagnostic is the user's error, not a crash: every
    subcommand that loads a file prints one located line and exits 1."""

    @pytest.mark.parametrize("command", ["analyze", "races", "threads",
                                         "ir", "compare", "stats", "explain",
                                         "dot", "trace"])
    def test_duplicate_global_is_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "dup.mc"
        path.write_text("int g; int g;\n")
        extra = ["g"] if command == "explain" else []
        assert main([command, str(path)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"{path}:1:12: SemanticError: duplicate global g\n"

    @pytest.mark.parametrize("command", ["analyze", "query"])
    def test_missing_main_is_one_line(self, tmp_path, capsys, command):
        """A program without ``main()`` is a located diagnostic, not a
        ``KeyError: 'main'`` from deep in the analysis."""
        path = tmp_path / "nomain.mc"
        path.write_text("int g;\n")
        extra = ["g"] if command == "query" else []
        assert main([command, str(path)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{path}:1: SemanticError: program "
                                "defines no main() function\n")

    def test_query_lex_error_carries_line_and_col(self, tmp_path, capsys):
        path = tmp_path / "lex.mc"
        path.write_text("int main() { int x;\n  x = ²; return 0; }",
                        encoding="utf-8")
        assert main(["query", str(path), "x"]) == 1
        assert capsys.readouterr().err == \
            f"{path}:2:7: LexError: unexpected character '²'\n"
