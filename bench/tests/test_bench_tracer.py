"""Self-time arithmetic of the outside-in tracer on synthetic nests."""
import pytest

from tracer import Spans, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_on_a_synthetic_nest():
    clock = FakeClock()
    t = Tracer(clock)
    root = t.open("root")          # 0 .. 10
    clock.now = 1.0
    a = t.open("a")                # 1 .. 4
    clock.now = 2.0
    leaf = t.open("leaf")          # 2 .. 3
    clock.now = 3.0
    t.close(leaf)
    clock.now = 4.0
    t.close(a)
    clock.now = 6.0
    b = t.open("a")                # 6 .. 9
    clock.now = 9.0
    t.close(b)
    clock.now = 10.0
    t.close(root)
    st = t.spans().self_times()
    assert st["root"] == (1, pytest.approx(10 - 3 - 3))
    assert st["a"] == (2, pytest.approx((3 - 1) + 3))
    assert st["leaf"] == (1, pytest.approx(1.0))
    assert sum(s for _, s in st.values()) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_covered_once():
    names = ["p", "c"]
    # parent 0..10; children 1..5 and 3..7 overlap; 8..12 overhangs the end
    spans = Spans(names, [0, 1, 1, 1], [-1, 0, 0, 0], [0.0, 1.0, 3.0, 8.0],
                  [10.0, 5.0, 7.0, 12.0])
    st = spans.self_times()
    assert st["p"] == (1, pytest.approx(10 - 6 - 2))
    assert st["c"] == (3, pytest.approx(4 + 4 + 4))


def test_wrap_records_spans_and_patch_is_undone(tmp_path):
    import types

    ns = types.ModuleType("ns")

    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    ns.inner, ns.outer = inner, outer
    seen = []
    t = Tracer()
    t.patch(ns, "inner", "m.inner", after=lambda result, args: seen.append((result, args)))
    t.patch(ns, "outer", "m.outer")
    assert ns.outer(3) == 8
    assert seen == [(4, (3,))]
    t.unpatch()
    assert ns.inner is inner and ns.outer is outer
    path = tmp_path / "spans"
    t.dump(path, {"note": 1})
    meta, spans = Spans.load(path)
    assert meta == {"note": 1}
    st = spans.self_times()
    assert st["m.outer"][0] == st["m.inner"][0] == 1
    assert list(spans.parent) == [-1, 0]


def test_span_closes_when_the_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.spans().self_times()["boom"][0] == 1
    assert not t._stack
