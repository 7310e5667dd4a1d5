"""Self-test of the benchmark's own logic on tiny inputs.

    python3 perfbench/selftest.py          # from the root of a checkout

Covers the self-time arithmetic of nested spans, wrapper installation on
every binding of a traced function, absent-name reporting, and the gate's
failed-operation counting on toy campaigns and commands.  The functions
are also collected by ``python -m pytest perfbench/selftest.py``.
"""
import json
import os
import shutil
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanSummary, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 4.0, parent=0),        # overlaps a: union is 1..4
        Span("c", 5.0, 6.0, parent=0),
        Span("a", 5.2, 5.7, parent=3),        # grandchild: only c loses it
        Span("d", 9.5, 12.0, parent=0),       # clipped to the parent's end
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.5, 0.5, 2.5]
    s = SpanSummary.of(spans)
    assert s.calls["a"] == 2 and s.total["a"] == 2.5 and s.self_total["a"] == 2.5


def test_recursive_calls_count_inclusive_time_once():
    spans = [Span("f", 0.0, 4.0), Span("f", 1.0, 2.0, parent=0)]
    s = SpanSummary.of(spans)
    assert s.calls["f"] == 2 and s.total["f"] == 4.0 and s.self_total["f"] == 4.0


def test_tracer_wraps_every_binding_and_reports_absent_names():
    pkg = types.ModuleType("toypkg")
    a = types.ModuleType("toypkg.a")
    b = types.ModuleType("toypkg.b")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(x) * 2

    class Engine:
        def run(self):
            return b.inner(0)

    a.inner, a.outer, a.Engine = inner, outer, Engine
    b.inner = inner                       # as after `from .a import inner`
    mods = {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}
    sys.modules.update(mods)
    try:
        tr = Tracer()
        tr.install("toypkg", {"a:inner": lambda x: {"n": 10 // x}, "a:outer": None,
                              "a:Engine.run": None, "a:gone": None, "a:Engine.gone": None,
                              "missing:f": None})
        assert a.outer(1) == 4 and Engine().run() == 1
        names = [(sp.name, sp.parent) for sp in tr.spans]
        assert names == [("a.outer", None), ("a.inner", 0), ("a.Engine.run", None),
                         ("a.inner", 2)]
        # a failing size extractor drops the sizes, not the call
        assert tr.spans[1].attrs == {"n": 10} and tr.spans[3].attrs is None
        assert tr.absent == ["a.gone", "a.Engine.gone", "missing.f"]
        tr.uninstall()
        assert a.inner is inner and b.inner is inner and vars(Engine)["run"] is not None
        assert a.outer(1) == 4 and len(tr.spans) == 4
    finally:
        for k in mods:
            sys.modules.pop(k, None)


def test_error_is_recorded_and_reraised():
    tr = Tracer()

    def boom():
        raise ArithmeticError("refused")

    f = tr.wrap("boom", boom)
    try:
        f()
    except ArithmeticError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tr.spans[0].error == "ArithmeticError"


def test_exponent_fit_and_pair_costs():
    spans = [Span("s", 0.0, 1.0, attrs={"R": 2, "n": 10, "h": 2}),
             Span("s", 0.0, 4.0, attrs={"R": 2, "n": 20, "h": 2}),
             Span("s", 0.0, 9.0, attrs={"R": 1, "n": 5, "h": 1})]
    assert abs(layers._n_exponent(spans, "s") - 2.0) < 1e-12
    per = layers._cost(spans, "s", lambda a: a["R"] * a["n"] * 9 * (a["h"] == 2))
    assert abs(per - 5.0 / (2 * 10 * 9 + 2 * 20 * 9)) < 1e-15


def _tiny(name, tmp):
    from dimerlab import cli

    wl = workloads.make(name, 5, Path(tmp), tiny=True)
    return wl, [wl.run_pass(cli) for _ in range(2)]


def test_campaign_gate_counts_failed_rows():
    tmp = tempfile.mkdtemp()
    try:
        wl, passes = _tiny("campaign", tmp)
        res = wl.gate(passes)
        assert (res.attempted, res.failed, res.correct) == (2 * wl.rows, 0, True), res.notes
        assert 0.0 < res.cumulant_err < 1e-6

        csv_path = wl.out / "replicas.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        n0 = wl.spec.ns[0]
        checked = wl.oracle_streams(n0)[0]
        unchecked = next(s for s in range(wl.spec.replicas) if s not in wl.oracle_streams(n0))
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if (int(cells[0]), int(cells[1])) == (n0, unchecked):
                cells[header.index("var_U")] = ""            # a NaN row: failed only
            if (int(cells[0]), int(cells[1])) == (n0, checked):
                cells[header.index("log_z")] = repr(float(cells[header.index("log_z")]) + 1e-3)
            lines[i] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        res = wl.gate(passes)
        assert res.failed == 2 * 2 and not res.correct
        assert any("independent route" in n for n in res.notes)

        bad = [passes[0], workloads.PassResult(1.0, 1.0, {}, [2], passes[0].digest)]
        res = wl.gate(bad)
        assert res.failed == 2 + wl.rows and not res.correct
    finally:
        shutil.rmtree(tmp)


def test_polynomial_gate_counts_refused_spectra():
    tmp = tempfile.mkdtemp()
    try:
        wl, passes = _tiny("polynomial", tmp)
        res = wl.gate(passes)
        assert res.correct and res.failed == 0, res.notes
        csv_path = wl.out / "replicas.csv"
        lines = csv_path.read_text().splitlines()
        col = lines[0].split(",").index("u_n")
        cells = lines[1].split(",")
        cells[col] = ""                                     # a refused extraction
        lines[1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        res = wl.gate(passes)
        assert res.failed == 2 and res.correct

        # a refused row still has its log_z checked against the scalar sweep
        header = lines[0].split(",")
        n1 = wl.spec.ns[-1]
        checked = wl.oracle_streams(n1)[0]
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if (int(cells[0]), int(cells[1])) == (n1, checked):
                cells[col] = ""
                cells[header.index("log_z")] = repr(float(cells[header.index("log_z")]) + 1e-3)
                lines[i] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        res = wl.gate(passes)
        assert res.failed == 2 * 2 and not res.correct
        assert any("independent route" in n for n in res.notes)
    finally:
        shutil.rmtree(tmp)


def test_instance_gate_counts_failed_commands():
    tmp = tempfile.mkdtemp()
    try:
        wl, passes = _tiny("instance", tmp)
        res = wl.gate(passes)
        assert (res.attempted, res.failed, res.correct) == (2 * 5, 0, True), res.notes
        p = passes[1]
        passes[1] = workloads.PassResult(p.wall, p.rate, p.cmd, [0, 0, 0, 0, 2], p.digest)
        res = wl.gate(passes)
        assert res.failed == 1 and res.correct
        (wl.out / "ground" / "ground.json").write_text('{"value": 1e9}')
        res = wl.gate(passes)
        assert res.failed == 2 + 1 and not res.correct
        jac = wl.out / "jacobi" / "jacobi.json"
        rep = json.loads(jac.read_text())
        rep["log_det"] += 1e-3
        jac.write_text(json.dumps(rep))
        passes[1] = p
        res = wl.gate(passes)
        assert res.failed == 2 + 2 and not res.correct
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
