"""The benchmark's span installer accepts the package as it stands.

``perfbench/spans.py`` wraps every public function of every dtebounds
module at each binding site, and refuses to run when an original is still
reachable from a module-level container or a class, where no wrapper would
see the call. Entering it once here turns such a binding into a test
failure instead of a failed traced benchmark run.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import dtebounds

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_all():
    for info in pkgutil.iter_modules(dtebounds.__path__):
        importlib.import_module(f"dtebounds.{info.name}")


def test_every_public_function_can_be_wrapped():
    _import_all()
    original = dtebounds.crossfit.estimate
    with _load_spans().Tracer().installed():
        assert dtebounds.crossfit.estimate is not original
    assert dtebounds.crossfit.estimate is original


def test_traced_estimates_complete(tmp_path):
    """Each method, with fitted and with fixed adjusters, and the curve dump
    run to completion under the span wrappers, so every counter can bind
    the arguments it reads."""
    from dtebounds import (
        DgpSpec,
        GridSpec,
        PropensityModel,
        draw_dgp,
    )
    from dtebounds.crossfit import METHODS

    _import_all()
    sample, _ = draw_dgp(DgpSpec(), 120, seed=5)
    propensity = {
        "sjls": PropensityModel(mode="constant_known", pi=0.5),
        "cross-fit-ipw": PropensityModel(mode="constant_known", pi=0.5),
        "cross-fit-group": PropensityModel(
            mode="group", group_of=(sample.x[:, 0] > 0).astype(int)),
    }
    csv = tmp_path / "data.csv"
    rows = [f"{y!r},{d},{x!r}" for y, d, x in
            zip(sample.y.tolist(), sample.d.tolist(), sample.x[:, 0].tolist())]
    csv.write_text("y,d,x1\n" + "\n".join(rows) + "\n")
    fixed = (sample.x[:, 0], sample.x[:, 1])
    with _load_spans().Tracer().installed() as tracer:
        for method in METHODS:
            for adjusters in (None, fixed):
                rep = dtebounds.crossfit.estimate(
                    sample, method, ["knn_loc_shift:k=5"], k_folds=3,
                    grid_spec=GridSpec("linear", 50),
                    propensity=propensity.get(method, PropensityModel()),
                    adjusters=adjusters)
                assert rep.method == method
        code = dtebounds.cli.main([
            "bounds-curve", "--input", str(csv), "--x-prefix", "x",
            "--models", "knn_loc_shift:k=5", "--grid", "linear:50",
            "--output", str(tmp_path / "cv")])
        assert code == 0
    assert tracer.stats["crossfit.estimate"].calls == 2 * len(METHODS)
    for layer in ("data.load_csv", "condcdf.extract_adjusters",
                  "kernels.shift_cdf_argopt", "condcdf.predict"):
        assert tracer.stats[layer].calls > 0, layer


def test_traced_selecting_estimates_complete():
    """A selecting cross-fit and a selecting sample split, whose kNN
    searches read the estimate's neighbour table, run to completion under
    the span wrappers."""
    from dtebounds import DgpSpec, GridSpec, draw_dgp

    _import_all()
    sample, _ = draw_dgp(DgpSpec(), 120, seed=5)
    with _load_spans().Tracer().installed() as tracer:
        for method in ("cross-fit", "sample-split"):
            rep = dtebounds.crossfit.estimate(
                sample, method, ["constant", "knn_loc_shift:k=5"],
                grid_spec=GridSpec("linear", 50))
            assert rep.method == method
    for layer in ("condcdf.select_model", "condcdf.fit_arm_model",
                  "condcdf.predict"):
        assert tracer.stats[layer].calls > 0, layer


def test_traced_multi_block_shift_call_stays_in_private_functions():
    """A call of several blocks, one per path, is one span: its blocks
    run in private functions, which the tracer does not wrap, and the
    traced result equals the untraced one."""
    import numpy as np

    from dtebounds import kernels

    _import_all()
    rng = np.random.default_rng(4)
    calls = []
    for n, m1, m0 in ((600, 50, 60), (1100, 200, 180)):
        grid = np.linspace(-4, 4, 401)
        refine = kernels._refines(m1 + m0, grid.size)
        step = (kernels._SHIFT_REFINE_ROWS if refine
                else kernels._SHIFT_BLOCK_EVENTS // (m1 + m0))
        assert n > 2 * step
        calls.append((refine, (rng.normal(size=n), rng.normal(size=n),
                               rng.normal(size=m1), rng.normal(size=m0),
                               grid)))
    assert [refine for refine, _ in calls] == [False, True]
    for _, args in calls:
        untraced = kernels.shift_cdf_argopt(*args)
        with _load_spans().Tracer().installed() as tracer:
            traced = kernels.shift_cdf_argopt(*args)
        assert list(tracer.stats) == ["kernels.shift_cdf_argopt"]
        assert tracer.stats["kernels.shift_cdf_argopt"].calls == 1
        for a, b in zip(traced, untraced):
            assert a.tobytes() == b.tobytes()
