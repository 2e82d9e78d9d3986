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
