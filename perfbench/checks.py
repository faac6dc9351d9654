"""Correctness checker: every job's output against an analytic reference.

The references are written out here from the formulas, without calling
wcslab, so a defect in the package cannot hide itself from the check.
``check(job, outcome)`` returns ``None`` for a correct output and a one-line
reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math

ROUTE_AGREEMENT_MAX = 1e-8
DENSITY_RTOL = 1e-9
RESIDUE_TOL = 1e-10
COMMUTATOR_MAX = 1e-8
PARAMETRIX_DEFECT_MAX = 1e-10
R_INF_TOL = 1e-6
PROP22_MAX = 1e-6
FIBER_LENGTH = 2.0 * math.pi
VERDICT_ATOL_FACTOR = 1e-9
CP2_VOLUME = math.pi**2 / 2.0


class CheckFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _close(value, ref: float, rtol: float) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= rtol * max(1.0, abs(ref))


def _reject_constant(token: str):
    raise CheckFailure(f"non-standard JSON literal {token}")


def parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# verdict_sweep
# ---------------------------------------------------------------------------


def surface_reference(surface: dict) -> dict:
    """Volume, |R|_inf and the closed-form density as a function of k.

    t4:      6.4 k^6
    cp2:     6.4 k^2 (k^2 - 1)^2      (p1 = 6/pi^2, B = -12 at c = 4)
    cp1xcp1: (k^2/30)(192 k^4 - 32 k^2 (1/a + 1/b))   (p1 = 0)
    """
    kind = surface["type"]
    if kind == "t4":
        return {"volume": 1.0, "signature": 0, "r_inf": 0.0, "density": lambda k: 6.4 * k**6}
    if kind == "cp2":
        return {"volume": CP2_VOLUME, "signature": 1, "r_inf": 4.0,
                "density": lambda k: 6.4 * k**2 * (k**2 - 1) ** 2}
    if kind == "cp1xcp1":
        a, b = surface["a"], surface["b"]
        return {
            "volume": (4.0 * math.pi * a) * (4.0 * math.pi * b),
            "signature": 0,
            "r_inf": max(1.0 / a, 1.0 / b),
            "density": lambda k: (k**2 / 30.0) * (192.0 * k**4 - 32.0 * k**2 * (1.0 / a + 1.0 / b)),
        }
    raise ValueError(f"no curvature reference for {kind!r}")


def prop39_lhs(sigma: int, vol: float, r_inf: float, k: int) -> float:
    k2 = float(k) ** 2
    return k2 * (96.0 * math.pi**2 * sigma - 224.0 * k2 * r_inf * vol + 192.0 * k2**2 * vol)


def prop39_crossover(sigma: int, vol: float, r_inf: float, kmax: int = 50):
    """Smallest k >= 1 from which the bound holds for every k' in [k, kmax]."""
    crossover = None
    for k in range(1, kmax + 1):
        if prop39_lhs(sigma, vol, r_inf, k) > 0.0:
            if crossover is None:
                crossover = k
        else:
            crossover = None
    return crossover


def _csv_rows(text: str) -> list[dict]:
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, value in raw.items():
            _require(value.strip().lower() not in ("nan", "inf", "-inf", "infinity", "-infinity"),
                     f"non-finite CSV value in {key}")
            if key in ("surface", "verdict"):
                row[key] = value
            elif key == "k":
                row[key] = int(value)
            else:
                row[key] = None if value == "" else float(value)
        rows.append(row)
    return rows


def check_verdict(job, outcome) -> None:
    p = job.params
    _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}, stderr {outcome.stderr.strip()!r}")
    rows = parse_json(outcome.stdout) if p["format"] == "json" else _csv_rows(outcome.stdout)
    _require([r["k"] for r in rows] == p["ks"], "rows do not cover the requested k range")
    surface = p["surface"]
    for row in rows:
        k = row["k"]
        verdict = row["verdict"]
        calib = row["calibration_constant"]
        _require(calib is not None and math.isfinite(calib) and calib > 0, "bad calibration constant")
        if surface["type"] == "generic":
            _require(row["surface"] == surface["name"], "surface name mismatch")
            sigma, vol, r_inf = surface["sigma"], surface["vol"], surface["r_inf"]
            _require(_close(row["prop39_lhs"], prop39_lhs(sigma, vol, r_inf, k), 1e-12),
                     f"prop39 lhs wrong at k={k}")
            _require(row["density_closed"] is None and row["integral"] is None,
                     "bounds-only row carries a density")
            cross = prop39_crossover(sigma, vol, r_inf)
            infinite = k != 0 and cross is not None and abs(k) >= cross
        else:
            _require(row["surface"] == surface["type"], "surface name mismatch")
            ref = surface_reference(surface)
            dens = ref["density"](k)
            closed, perm = row["density_closed"], row["density_perm"]
            _require(_close(closed, dens, DENSITY_RTOL), f"density {closed} != {dens} at k={k}")
            _require(_close(perm, dens, DENSITY_RTOL), f"permutation density {perm} != {dens} at k={k}")
            agreement = row["route_agreement"]
            _require(agreement is not None and 0.0 <= agreement <= ROUTE_AGREEMENT_MAX,
                     f"route agreement {agreement} at k={k}")
            total_volume = FIBER_LENGTH * ref["volume"]
            _require(_close(row["integral"], dens * total_volume, DENSITY_RTOL),
                     f"integral wrong at k={k}")
            lhs = prop39_lhs(ref["signature"], ref["volume"], ref["r_inf"], k)
            _require(_close(row["prop39_lhs"], lhs, 1e-12), f"prop39 lhs wrong at k={k}")
            vanishes = k == 0 or (surface["type"] == "cp2" and abs(k) == 1)
            infinite = not vanishes
            if vanishes:
                _require(abs(row["integral"]) <= VERDICT_ATOL_FACTOR * total_volume,
                         f"integral does not vanish at k={k}")
        want = "INFINITE_ORDER" if infinite else "INCONCLUSIVE"
        _require(verdict == want, f"verdict {verdict} at k={k}, expected {want}")


# ---------------------------------------------------------------------------
# residue_report
# ---------------------------------------------------------------------------


def check_psdo(job, outcome) -> None:
    p = job.params
    _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}, stderr {outcome.stderr.strip()!r}")
    (report,) = parse_json(outcome.stdout)
    residue = complex(*report["residue"])
    _require(abs(residue - p["residue"]) <= RESIDUE_TOL * max(1.0, abs(p["residue"])),
             f"residue {residue} != {p['residue']}")
    violation = report["commutator_max_violation"]
    _require(0.0 <= violation <= COMMUTATOR_MAX, f"commutator violation {violation}")
    defect = report["parametrix_defect_sup"]
    _require(sorted(int(d) for d in defect) == list(range(1 - p["depth"], 1)),
             "parametrix defect degrees")
    _require(all(0.0 <= v <= PARAMETRIX_DEFECT_MAX for v in defect.values()),
             f"parametrix defect {max(defect.values())}")
    _require((report["commutator_trials"], report["depth"], report["seed"])
             == (p["trials"], p["depth"], p["seed"]), "report does not echo its arguments")


# ---------------------------------------------------------------------------
# orbit_checks
# ---------------------------------------------------------------------------


def check_audit(job, outcome) -> None:
    out = outcome.value
    _require(len(out["orders"]) == 6, "audit must report six terms")
    _require(all(o in (-1, -2) for o in out["orders"]), f"audit orders {out['orders']}")
    lead = out["leading_degree"]
    _require(lead is not None and lead <= -1, f"total leading degree {lead}")


def check_max_abs(job, outcome) -> None:
    ref = surface_reference(job.params["surface"])["r_inf"]
    value = outcome.value
    _require(math.isfinite(value) and abs(value - ref) <= R_INF_TOL, f"|R|_inf {value} != {ref}")


def check_prop22(job, outcome) -> None:
    p = job.params
    _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}, stderr {outcome.stderr.strip()!r}")
    (report,) = parse_json(outcome.stdout)
    err = report["relative_error"]
    _require(0.0 <= err <= PROP22_MAX and report["pass"] is True, f"prop 2.2 relative error {err}")
    want = 2.0 * math.pi * p["charge"]
    for key in ("family_pairing", "basepoint_pairing"):
        _require(_close(report[key], want, PROP22_MAX), f"{key} {report[key]} != 2 pi q")
    _require((report["charge"], report["grid"]) == (p["charge"], p["grid"]),
             "report does not echo its arguments")


CHECKS = {
    "verdict": check_verdict,
    "psdo": check_psdo,
    "audit": check_audit,
    "max_abs": check_max_abs,
    "prop22": check_prop22,
}


def check(job, outcome) -> str | None:
    """None if the output is correct, else the reason it is not."""
    if outcome.error is not None:
        return outcome.error
    try:
        CHECKS[job.kind](job, outcome)
    except CheckFailure as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
