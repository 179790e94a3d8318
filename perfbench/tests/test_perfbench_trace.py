"""Spans from the traced run: nesting, self times and clean removal."""

import scipy.linalg

import kmeoc.estimator
import kmeoc.hjb
import workloads
from tracing import Tracer


def _root(tracer, op):
    roots = [tracer.spans[i] for i in tracer.op_spans(op) if tracer.spans[i].parent < 0]
    assert [r.name for r in roots] == ["op"]
    return roots[0].end - roots[0].start


def test_solve_self_times_fit_inside_the_operation(tmp_path):
    s = workloads.setup("solve-s2", tmp_path)
    tracer = Tracer()
    tracer.op = 0
    with tracer:
        rec, _ = workloads.solve_op(s, dict(s.cfg, N=80, H=40), 1, tmp_path, tracer)
    st = tracer.self_times(0)
    wall = _root(tracer, 0)
    assert sum(v for k, v in st.items() if k != "op") <= wall <= rec.wall
    assert all(v >= 0.0 for v in st.values())
    assert {
        "systems.generate", "kernel.gram", "kernel.cross", "estimator.fit",
        "estimator.factor", "estimator.solve", "estimator.markov",
        "store.save", "store.load", "hjb.recursion", "hjb.interp", "bench.score",
    } <= set(st)
    n = tracer.span_counts(0)
    assert n["estimator.factor"] == 2  # K_U in the fit, K_X to interpolate
    assert n["kernel.cross"] == s.points.shape[1]
    c = tracer.counters[0]
    assert c["kernel.gram_entries"] == 3 * 80 * 80 + 80 * 80
    assert c["systems.euler_steps"] == 80 * s.cfg["substeps"]
    # The wrappers are gone once the traced block ends.
    assert kmeoc.estimator.cho_factor is scipy.linalg.cho_factor
    assert not hasattr(kmeoc.hjb.khjb_recursion, "__wrapped__")


def test_cli_self_times_fit_inside_the_operation(tmp_path):
    s = workloads.setup("cli-s1", tmp_path)
    tracer = Tracer()
    tracer.op = 0
    with tracer:
        rec, out = workloads.cli_op(s, 0, tmp_path / "op", True, tracer)
    assert not rec.failed, rec.error
    st = tracer.self_times(0)
    wall = _root(tracer, 0)
    assert sum(v for k, v in st.items() if k != "op") <= wall <= rec.wall
    assert {"cli.generate", "cli.identify", "cli.control", "cli.predict",
            "fpk.embed", "fpk.propagate", "estimator.normality"} <= set(st)
    assert tracer.span_counts(0)["fpk.propagate"] == workloads.CLI_STEPS
    workloads.check_cli(rec, out, s)
    assert rec.problems == []
