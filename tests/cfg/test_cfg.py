"""Per-function CFG tests."""

from repro.cfg import CFG
from repro.frontend import compile_source


def cfg_of(src, fn="main"):
    m = compile_source(src)
    return CFG(m.functions[fn])


class TestCFG:
    def test_single_block(self):
        cfg = cfg_of("int main() { return 0; }")
        assert len(list(cfg.graph.nodes())) == 1
        assert cfg.exits == [cfg.entry]

    def test_if_diamond(self):
        cfg = cfg_of("int main() { int x; if (1) { x = 1; } else { x = 2; } return x; }")
        assert len(cfg.successors(cfg.entry)) == 2

    def test_loop_has_back_edge(self):
        cfg = cfg_of("int main() { int i; while (i < 3) { i = i + 1; } return i; }")
        assert cfg.loop_blocks, "a while loop must produce loop blocks"

    def test_multiple_exits(self):
        cfg = cfg_of("int main() { if (1) { return 1; } return 2; }")
        assert len(cfg.exits) == 2

    def test_domtree_entry(self):
        cfg = cfg_of("int main() { int x; if (1) { x = 1; } return x; }")
        assert cfg.domtree.entry is cfg.entry

    def test_frontiers_nonempty_for_diamond(self):
        cfg = cfg_of("int main() { int x; if (1) { x = 1; } else { x = 2; } return x; }")
        assert any(cfg.frontiers[b] for b in cfg.frontiers)

    def test_reachable_blocks_covers_all(self):
        cfg = cfg_of("int main() { int i; for (i = 0; i < 2; i = i + 1) { } return 0; }")
        assert cfg.graph.reachable_from(cfg.entry) == set(cfg.graph.nodes())
