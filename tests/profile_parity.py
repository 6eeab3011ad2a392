"""Bit-for-bit parity of the tabulated profile backend against another checkout.

    python tests/profile_parity.py PATH_TO_OTHER_CHECKOUT

Builds six models without closed forms in this tree and in the other
checkout (each in its own process, importing growthlab from that tree's
src/): the 61-row cigar table perfbench/cigar_61.txt, conformal_poly
[1, 1], [1, -0.5] and [1, -0.3, 0.05], the bare cigar and the bare
hyperbolic disk (their lam without the closed forms).  On each one it
evaluates, at 240 geometric radii inside the model's r_max,

  * rho_of_r, radial_curvature and model_hessian, and distance_from_origin
    at the rho the first returns;
  * 64 points of every geodesic circle about an off-center point, at 40 of
    the radii that keep the circle inside the chart;
  * the growth curve of z^3 + z about the same point at 7 of those radii.

It prints, per model and quantity, how many values differ and the worst
relative difference, and exits 1 unless every value agrees bit for bit
(NaNs agree with NaNs).  Both trees' r_max are printed; they need not
match, but each radius must lie below both.  pytest does not collect this
file.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

# name -> (top radius, off-center point)
MODELS = {
    "table61": (2.4, 0.3 + 0.1j),
    "poly[1,1]": (30.0, 0.3 + 0.2j),
    "poly[1,-0.5]": (0.93, 0.2 + 0.1j),
    "poly[1,-0.3,0.05]": (30.0, 0.3 + 0.2j),
    "bare-cigar": (20.0, 0.3 + 0.1j),
    "bare-hyperbolic": (15.0, 0.2 + 0.1j),
}
N_RADII, N_CIRCLES, N_ANGLES = 240, 40, 64


def build(name: str):
    from growthlab import (RadialProfile, builtin_model, load_profile_table,
                           model_from_profile)
    if name == "table61":
        root = Path(__file__).resolve().parents[1]
        return model_from_profile(load_profile_table(
            str(root / "perfbench" / "cigar_61.txt")))
    if name.startswith("poly"):
        coeffs = json.loads(name[len("poly"):])
        return builtin_model("conformal_poly", coeffs=coeffs)
    prof = builtin_model(name[len("bare-"):]).profile
    return model_from_profile(RadialProfile(lam=prof.lam,
                                            rho_max=prof.rho_max, name=name))


def values(src: str) -> dict:
    """Every model's quantities from the tree at src, as lists of floats."""
    sys.path.insert(0, src)
    from growthlab import (HoloPoly, distance_from_origin, geodesic_circle,
                           growth_curve, model_hessian, radial_curvature,
                           rho_of_r)
    f = HoloPoly(1, {3: 1.0, 1: 1.0})
    phi = np.linspace(0.0, 2.0 * math.pi, N_ANGLES, endpoint=False)
    out = {}
    for name, (top, center) in MODELS.items():
        model = build(name)
        rs = np.geomspace(1e-2, top, N_RADII)
        rho = rho_of_r(model, rs)
        # circles about center stay below r_max and below top
        room = min(top, model.r_max) - distance_from_origin(model, abs(center))
        circle_rs = np.geomspace(1e-2, 0.9 * room, N_CIRCLES)
        z = geodesic_circle(model, center, circle_rs)(phi)
        curve = growth_curve(model, f, center, circle_rs[::-6][::-1])
        out[name] = {
            "r_max": model.r_max,
            "rho_of_r": rho.tolist(),
            "distance_from_origin": distance_from_origin(model, rho).tolist(),
            "radial_curvature": radial_curvature(model, rs).tolist(),
            "model_hessian": model_hessian(model, rs).tolist(),
            "circle_re": z.real.ravel().tolist(),
            "circle_im": z.imag.ravel().tolist(),
            "growth_curve": curve.values.tolist(),
        }
    return out


def run(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--values", str(tree / "src")],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list) -> int:
    if argv[:1] == ["--values"]:
        json.dump(values(argv[1]), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    here, other = run(Path(__file__).resolve().parents[1]), run(Path(argv[0]))
    failed = False
    for name, (top, _) in MODELS.items():
        a, b = here[name], other[name]
        print(f"{name}: r_max {a['r_max']!r} here, {b['r_max']!r} there")
        if not top < min(a["r_max"], b["r_max"]):
            print(f"  radius {top} lies beyond an r_max")
            failed = True
        for key in a:
            if key == "r_max":
                continue
            new, old = np.array(a[key]), np.array(b[key])
            same = (new == old) | (np.isnan(new) & np.isnan(old))
            if same.all():
                continue
            with np.errstate(all="ignore"):
                rel = np.abs(new - old) / np.abs(old)
            print(f"  {key}: {np.count_nonzero(~same)} of {same.size} values "
                  f"differ, worst relative difference {np.nanmax(rel):.3g}")
            failed = True
    print("FAIL" if failed else "ok: every value agrees bit for bit")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
