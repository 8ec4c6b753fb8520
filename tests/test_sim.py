"""Simulation kernel: statistics."""

from repro.sim.stats import Stats


class TestStats:
    def test_add_and_get(self):
        s = Stats("s")
        s.add("x")
        s.add("x", 2)
        assert s["x"] == 3

    def test_nested_scopes_flatten(self):
        s = Stats("root")
        s.scope("child").add("hits", 5)
        flat = dict(s.flat())
        assert flat["root.child.hits"] == 5

    def test_ratio_handles_zero_denominator(self):
        s = Stats("s")
        assert s.ratio("a", "b") == 0.0
        s.add("a", 3)
        s.add("b", 6)
        assert s.ratio("a", "b") == 0.5

    def test_reset_clears_children(self):
        s = Stats("s")
        s.scope("c").add("x")
        s.reset()
        assert s.scope("c")["x"] == 0
