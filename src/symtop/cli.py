"""Command-line front end.

Subcommands:

    simulate --config FILE --out FILE     integrate and write a CSV trajectory
    check    --suite NAME [--seed N]      run a named certification suite
    compare  --config FILE [--tol X]      full-vs-reduced commutation residual
    orbit    --nu a,b,c --pi a,b,c        Casimir level and orbit report

Configs are strict JSON: unknown keys anywhere are rejected (exit 2), as are
numbers given as bools or strings, non-finite numbers, values that BodyParams,
a potential or dynamics.step_count rejects (reported with the config path),
and attitudes further than 1e-6 from a rotation (orthogonal, det +1), as is
a file that is not UTF-8 or nests deeper than Python can recurse.  The
initial block becomes a ReducedState or FullState, and phase.flatten gives
its chart vector, so the chart order is known only to phase.  CSV rows
carry t, x, p, nu, pi (phase.Layout.reduced), energy, C1, C2 and the attitude
orthogonality defect (0 for reduced runs), all floats with 17 significant
digits so downstream tools can round-trip them losslessly.

Exit codes: 0 success / all checks pass, 2 validation error or unwritable
--out (found before the run), 3 integration failed (a non-finite state or
monitor, or a step too large for the constraint repair), 1 a check or
comparison failed.  An error is one stderr line: main runs every command with
numpy's overflow and invalid-value warnings off, so none adds a line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import checks, dynamics, orbits
from .algebra3 import exp_so3, max_or_nan, norm3, reorthonormalize, rotation_defect
from .errors import NonFinite, TooFarFromSO3
from .phase import LAYOUTS, FullState, ReducedState, Se3DualPoint, SpaceId, flatten

# t, the reduced chart's labels of the columns write_csv selects by Layout.reduced, the monitors.
CSV_COLUMNS = ",".join(["t", *LAYOUTS[SpaceId.Reduced].names, "energy", "C1", "C2", "ortho_defect"])
# One CSV row: a %.17g field per column, comma-separated.
_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS.split(","))) + "\n"

ROTATION_LOAD_TOL = 1e-6


class ConfigError(Exception):
    """Invalid run configuration (maps to exit code 2)."""


def _require_keys(d: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    missing = required - d.keys()
    if missing:
        raise ConfigError(f"{where} missing keys: {sorted(missing)}")
    unknown = d.keys() - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


def _finite(v, where: str) -> float:
    """v as a finite float.  Bools (a subclass of int) and strings are not
    numbers here, though float() would take them."""
    f = math.nan
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(f):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return f


def _integer(v, where: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return v


def _vec(v, n: int, where: str) -> np.ndarray:
    if not isinstance(v, list) or len(v) != n:
        raise ConfigError(f"{where} must be a list of {n} finite numbers")
    return np.array([_finite(e, f"{where}[{i}]") for i, e in enumerate(v)])


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError of the library's own checks
    turned into a ConfigError that names the config path where."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def parse_potential(node, where: str = "potential") -> dynamics.Potential:
    if not isinstance(node, dict) or "type" not in node:
        raise ConfigError(f"{where} must be an object with a 'type' key")
    kind = node["type"]
    if kind == "zero":
        _require_keys(node, {"type"}, set(), where)
        return dynamics.ZeroPotential()
    if kind == "gravity":
        _require_keys(node, {"type", "g", "chi"}, set(), where)
        return _build(where, dynamics.LinearGravity,
                      g=_vec(node["g"], 3, f"{where}.g"), chi=_finite(node["chi"], f"{where}.chi"))
    if kind == "dipole":
        _require_keys(node, {"type", "m", "mu"}, set(), where)
        return _build(where, dynamics.DipolePotential,
                      m=_finite(node["m"], f"{where}.m"), mu=_vec(node["mu"], 3, f"{where}.mu"))
    if kind == "sum":
        _require_keys(node, {"type", "terms"}, set(), where)
        if not isinstance(node["terms"], list) or not node["terms"]:
            raise ConfigError(f"{where}.terms must be a non-empty list")
        return dynamics.SumPotential(
            terms=tuple(parse_potential(t, f"{where}.terms[{i}]") for i, t in enumerate(node["terms"]))
        )
    raise ConfigError(f"{where}.type {kind!r} not one of zero/gravity/dipole/sum")


def _load_rotation(initial: dict) -> np.ndarray:
    if ("R" in initial) == ("axis_angle" in initial):
        raise ConfigError("initial must give exactly one of 'R' (9 numbers) or 'axis_angle' (3 numbers)")
    if "R" in initial:
        r = _vec(initial["R"], 9, "initial.R").reshape(3, 3)
    else:
        v = _vec(initial["axis_angle"], 3, "initial.axis_angle")
        if norm3(v) == math.inf:  # exp_so3 would give NaN
            raise ConfigError("initial.axis_angle length overflows to inf")
        r = exp_so3(v)
    defect = rotation_defect(r)
    if not defect <= ROTATION_LOAD_TOL:  # also catches a NaN defect
        raise ConfigError(f"initial rotation defect {defect:.3e} exceeds {ROTATION_LOAD_TOL}")
    return reorthonormalize(r)


def _load_nu(initial: dict) -> np.ndarray:
    nu = _vec(initial["nu"], 3, "initial.nu")
    length = norm3(nu)
    defect = abs(length - 1.0)
    if defect > ROTATION_LOAD_TOL:
        raise ConfigError(f"initial |nu| deviates from 1 by {defect:.3e} (limit {ROTATION_LOAD_TOL})")
    return nu / length


class RunConfig:
    """Validated simulation configuration."""

    def __init__(self, raw: dict):
        _require_keys(
            raw,
            {"space", "body", "potential", "initial", "dt", "T"},
            {"method", "sample_stride"},
            "config",
        )
        if raw["space"] not in ("full", "reduced"):
            raise ConfigError("config.space must be 'full' or 'reduced'")
        self.space = SpaceId.CotSE3 if raw["space"] == "full" else SpaceId.Reduced

        _require_keys(raw["body"], {"M", "I1", "I3"}, set(), "body")
        self.body = _build("body", dynamics.BodyParams,
                           **{k: _finite(raw["body"][k], f"body.{k}") for k in ("M", "I1", "I3")})
        self.potential = parse_potential(raw["potential"])

        initial = raw["initial"]
        if self.space is SpaceId.Reduced:
            _require_keys(initial, {"x", "p", "nu", "pi"}, set(), "initial")
            self.state = ReducedState(
                x=_vec(initial["x"], 3, "initial.x"),
                p=_vec(initial["p"], 3, "initial.p"),
                nu=_load_nu(initial),
                pi=_vec(initial["pi"], 3, "initial.pi"),
            )
        else:
            _require_keys(initial, {"x", "p", "pi"}, {"R", "axis_angle"}, "initial")
            self.state = FullState(
                x=_vec(initial["x"], 3, "initial.x"),
                p=_vec(initial["p"], 3, "initial.p"),
                R=_load_rotation(initial),
                pi=_vec(initial["pi"], 3, "initial.pi"),
            )

        self.dt = _finite(raw["dt"], "config.dt")
        self.T = _finite(raw["T"], "config.T")
        _build("config", dynamics.step_count, self.T, self.dt)
        method = raw.get("method", "rk4_repair")
        if method not in dynamics.METHODS:
            raise ConfigError(f"config.method must be one of {dynamics.METHODS}")
        self.method = method
        self.sample_stride = _integer(raw.get("sample_stride", 1), "config.sample_stride")
        if self.sample_stride < 1:
            raise ConfigError("config.sample_stride must be a positive integer")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not valid UTF-8: {e}") from None
    try:
        return RunConfig(json.loads(text))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except RecursionError:  # json.loads and parse_potential recurse once per level
        raise ConfigError("config nests too deeply") from None


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv(path: str, traj: dynamics.Trajectory) -> None:
    """One row per sample: t, the (x, p, nu, pi) entries of Layout.reduced, the monitors.

    An existing regular file is rewritten in place: opened without O_TRUNC,
    written from the start and cut to the length written, so no stale tail is
    left and a symlink stays a link.  Anything else (/dev/null, a tty, a pipe
    such as /dev/stdout) is only written, since it cannot be cut.  A new file
    is created with mode 0o666 less the umask, as open(path, "w") creates it.
    Truncating to zero first costs more: on ext4 (auto_da_alloc, its default)
    closing a file truncated to zero and written again allocates its blocks
    and starts writeback.  That writeback is also what made the old
    truncate-and-rewrite likely to survive a crash whole.  The write is not
    atomic (nor was open(path, "w")): a reader during the write, a crash, or a
    write that fails part-way can find new rows followed by the old file's
    tail, and that can parse as one well-formed CSV mixing two runs.  A caller
    that needs the file to survive a crash should write to a fresh path.
    """
    rows = np.column_stack([traj.t, traj.z[:, LAYOUTS[traj.space].reduced],
                            traj.energy, traj.c1, traj.c2, traj.ortho_defect]).tolist()
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
            f.write(CSV_COLUMNS + "\n")
            f.writelines(_CSV_ROW % tuple(row) for row in rows)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as e:
        raise ConfigError(f"cannot write --out: {e}") from None


def _probe_out(path: str) -> bool:
    """Check that path can be written, before the run, so an unwritable path
    costs no integration.  Never truncates an existing file; returns whether
    the probe created the file."""
    try:
        try:
            open(path, "x", encoding="utf-8").close()
            return True
        except FileExistsError:
            open(path, "a", encoding="utf-8").close()
            return False
    except OSError as e:
        raise ConfigError(f"cannot write --out: {e}") from None


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    created = _probe_out(args.out)
    try:
        h = dynamics.hamiltonian_field(cfg.space, cfg.body, cfg.potential)
        traj = dynamics.simulate(h, flatten(cfg.state, cfg.space), cfg.dt, cfg.T, cfg.method, cfg.sample_stride)
        write_csv(args.out, traj)
    except BaseException:
        if created:  # a failed run leaves no file of its own behind
            with contextlib.suppress(OSError):
                os.remove(args.out)
        raise
    print(f"wrote {len(traj)} samples to {args.out}")
    # a drift may read inf: finite monitors far apart can differ by inf
    print(f"energy drift  max|h - h0|   = {np.abs(traj.energy - traj.energy[0]).max():.3e}")
    print(f"C1 drift      max|C1 - 1|   = {np.abs(traj.c1 - 1.0).max():.3e}")
    print(f"C2 drift      max|C2 - C20| = {np.abs(traj.c2 - traj.c2[0]).max():.3e}")
    print(f"ortho defect  max           = {traj.ortho_defect.max():.3e}")
    return 0


def _seed(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, seed=_seed(args))
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    print(f"{'all checks passed' if ok else 'CHECK FAILURES PRESENT'}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be a positive finite number, got {args.tol!r}")
    cfg = load_config(args.config)
    if cfg.space is not SpaceId.CotSE3:
        raise ConfigError("compare requires a config with space = 'full'")
    residual = dynamics.commutation_residual(
        cfg.state, cfg.body, cfg.potential, cfg.dt, cfg.T, cfg.method, cfg.sample_stride
    )
    ok = residual <= args.tol
    print(f"commutation residual {residual:.3e}  tol {args.tol:.1e}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _parse_triple(s: str, name: str) -> np.ndarray:
    parts = s.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--{name} expects three comma-separated numbers")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"--{name} expects numbers, got {s!r}") from None
    if not np.isfinite(v).all():
        raise ConfigError(f"--{name} expects finite numbers, got {s!r}")
    return v


def cmd_orbit(args) -> int:
    seed = _seed(args)
    if args.count < 1:
        raise ConfigError(f"--count must be a positive integer, got {args.count}")
    nu = _parse_triple(args.nu, "nu")
    pi = _parse_triple(args.pi, "pi")
    q0 = Se3DualPoint(nu=nu, pi=pi)
    level = orbits.casimirs(q0)
    # The witness matches levels within tol = WITNESS_TOL * s, and tol < C1
    # keeps q0 off the degenerate orbits.  For the draws below, |nu x d| in
    # the witness translation stays below (sqrt(3) + 2) s, so 8 s < inf
    # keeps it finite.
    tol = orbits.witness_tol(q0, level)
    s = tol / orbits.WITNESS_TOL
    if not (tol < level.c1 and 8.0 * s < math.inf):
        raise ConfigError(
            f"orbit report requires {orbits.WITNESS_TOL:g} < |nu|^2/s and 8 s < inf with s = max(1, |nu|^2, |nu||pi|)"
            f" (degenerate orbits excluded), got |nu|^2 = {level.c1:.3e}, s = {s:.3e}"
        )
    # the witness residual is judged relative to the size of the input
    scale = max(1.0, math.hypot(*nu), math.hypot(*pi))
    print(f"Casimir level: C1 = {_fmt(level.c1)}, C2 = {_fmt(level.c2)}")

    rng = np.random.default_rng(seed)
    images = (orbits.coadjoint(orbits.random_se3(rng), q0) for _ in range(args.count))
    worst = max_or_nan(
        [orbits.witness_residual(orbits.same_orbit_witness(q0, q), q0, q) / scale for q in images]
    )
    print(f"sampled {args.count} same-level points via the coadjoint action")
    print(f"worst witness residual: {worst:.3e}  ({'PASS' if worst <= 1e-9 else 'FAIL'} at 1e-9)")

    nh = nu / norm3(nu)
    print(f"magnetic form samples at c2 = {_fmt(level.c2)} (tangent pairs at nu/|nu|):")
    for _ in range(3):
        u = orbits.random_tangent(rng, nh)
        v = orbits.random_tangent(rng, nh)
        print(f"  B(u, v) = {_fmt(orbits.magnetic_form(nh, u, v, level.c2))}")
    return 0 if worst <= 1e-9 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtop",
        description="Symmetric-top Poisson geometry: simulate, certify, compare, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a configured system and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("check", help="run a certification suite")
    p.add_argument("--suite", required=True, choices=sorted(checks.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compare", help="full-vs-reduced commutation residual")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("orbit", help="Casimir level and coadjoint-orbit report")
    p.add_argument("--nu", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_orbit)
    return parser


# Built on the first call: parsing reads it without changing it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # numpy's over/invalid warnings are off for every command: a warning
        # would add lines to the one-line error, and each command already
        # reports a non-finite result as inf or nan, or rejects it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NonFinite, TooFarFromSO3) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
