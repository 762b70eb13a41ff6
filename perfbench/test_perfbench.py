"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _digests():
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def _report(op, tmp_path) -> str:
    from iwasawa_kernel import cli

    path = workloads.write_inputs([op], str(tmp_path))[op.key]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([op.command, path, *op.args, "--format", "structured"]) == 0
    return buf.getvalue()


def _op(workload, key):
    for cands in workloads.slots(workload, str(ROOT)):
        for op in cands:
            if op.key == key:
                return op
    raise KeyError(key)


def test_same_seed_same_files(tmp_path):
    for name in workloads.WORKLOADS:
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        workloads.write_inputs(workloads.draw(name, 7, str(ROOT)), str(a))
        workloads.write_inputs(workloads.draw(name, 7, str(ROOT)), str(b))
        assert _files(a) == _files(b)


def test_seeds_vary_the_inputs():
    for name in workloads.WORKLOADS:
        draws = {tuple(op.key for op in workloads.draw(name, s, str(ROOT))) for s in range(8)}
        assert len(draws) > 1, name


def test_every_candidate_has_a_digest():
    digests = _digests()
    for name in workloads.WORKLOADS:
        for cands in workloads.slots(name, str(ROOT)):
            for op in cands:
                assert op.key in digests, op.key


def _corrupt(doc, path):
    *head, last = path
    for key in head:
        doc = doc[key]
    val = doc[last]
    if isinstance(val, bool):
        doc[last] = not val
    elif isinstance(val, int):
        doc[last] = val + 1
    elif isinstance(val, str):
        doc[last] = val + "x"
    else:
        _corrupt(val, (0,))


def test_oracle_rejects_one_corrupted_field(tmp_path):
    digests = _digests()
    cases = {
        "ucs upper5": [("nilpotency_class",), ("series_described",), ("centralizer_z2",)],
        "growth heis_conj --level 4 --coeff-prec 6 --m-max 2 --regime char0 --size-budget 10000000":
            [("table", "2", 1, "value"), ("table", "1", 0, "status"), ("fits", "2", "lambda")],
    }
    for key, paths in cases.items():
        op = _op("mahler-729", key)
        good = json.loads(_report(op, tmp_path))
        assert oracle.problems(op, json.dumps(good), digests) == []
        for path in paths:
            bad = json.loads(json.dumps(good))
            _corrupt(bad, path)
            assert oracle.problems(op, json.dumps(bad), digests), (key, path)


def test_oracle_checks_known_answers_without_digests():
    op = _op("control-729", "control heis_central_ideal --level 2 --coeff-prec 2")
    doc = {"rank_log": 1296, "controller_estimate": [2, 2, 1],
           "lattice": {"0,0,0": {"definitional": True, "by_action": True}}}
    assert oracle.known_answer_problems(op, doc) == [
        "controller_estimate = [2, 2, 1], expected [2, 2, 0]"]


def _bindings():
    """Every (owner, name) -> object binding a traced run may replace."""
    out = {}
    for mod in spans._package_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
    for _, modname, attr in spans.TARGETS:
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"{spans.PACKAGE}.{modname}"), clsname)
            out[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return out


def test_traced_run_restores_every_name_and_misses_no_call(tmp_path):
    from iwasawa_kernel import algebra, cli

    before = _bindings()
    # the control-729 members take seconds; the same command one level down
    op = workloads._control_fixed(str(ROOT), "heis_central_ideal", 3, 1, alpha=(0, 0, 1))[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.ideal_closure is not before[("iwasawa_kernel.algebra", "ideal_closure")]
        assert cli.ideal_closure is algebra.ideal_closure
        report = _report(op, tmp_path)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert oracle.known_answer_problems(op, json.loads(report)) == []

    names = {s[0] for s in tracer.spans}
    for name in ("cli.main", "algebra.ideal_closure", "algebra.mult_table",
                 "charts.coordinates", "linalg.howell", "control.is_controlled"):
        assert name in names, name
    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    selfs = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in selfs)
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["algebra.ideal_closure.calls"] == 1
    assert metrics["algebra.mult_table.builds"] == 1
    assert metrics["control.is_controlled.calls"] > 0


def test_self_time_excludes_children():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_speed_index_is_one_at_nominal_and_scales():
    import speed

    nominal = {k: [v, v * 0.5, v * 3] for k, v in speed.NOMINAL.items()}
    assert abs(speed.index(nominal) - 1.0) < 1e-12
    slow = {k: [2 * t for t in ts] for k, ts in nominal.items()}
    assert abs(speed.index(slow) - 2.0) < 1e-12


def test_sampler_probes_while_running_and_restores_the_signal():
    import signal
    import time

    import speed

    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert all(len(ts) >= 1 for ts in sampler.samples.values())
    assert 0 < sampler.spent < 0.5
    assert speed.index(sampler.samples) > 0


def test_result_line_leaves_out_unmeasured_metrics():
    import run

    defs = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "count"}]
    assert run.result_line({"a": 1.5}, defs) == {"a": {"value": 1.5, "unit": "s"}}
    assert run.result_line({}, defs, "w.") == {}
