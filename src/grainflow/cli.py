"""Batch front end: config parsing, initial data, run/verify/sweep commands.

A run is fully specified by one config file plus a seed.  The config format
is flat sectioned key-value text::

    [model]
    potential = g1          # g1 | g2 | g3
    c = 1.0
    u = 0.0
    o_star = 0.0            # defaults: 0/1 for g1,g3 and 0.05/0.95 for g2
    iota_star = 1.0
    mobility = kobayashi    # kobayashi | constant
    kappa = 0.01            # safeguard floor (kobayashi)
    a0 = 1.0                # constant mobility values
    a = 1.0
    b = 1.0

    [grid]
    dim = 1
    shape = 64              # or 32x32 for dim = 2
    dx = 1.0

    [scheme]
    h_frac = 0.5            # h as a fraction of h*; or give h directly
    override_h_gate = no    # an h at or above h* is a config error without it
    nu = 0.1
    n_steps = 100
    record_every = 10

    [init]
    kind = random           # wells | random | grains
    seed = 1234
    amplitude = 0.8
    n_grains = 4

    [output]
    directory = out
    formats = csv           # csv or csv,raw

    [verify]
    n_oracle = 6            # theta-oracle instances checked by verify
    [sweep]
    nus = 0.5,0.25          # sweep-nu's decreasing schedule; default 2**-k, k = 1..8
    [probe]
    n_probes = 20           # v-steps measured by probe-contraction

A config is UTF-8 text; a leading byte-order mark is dropped.  Lines
starting with ``#`` and inline ``#`` comments are ignored; values may be
quoted, and a quote must close, with the mark that opened it, before any
``#``; only that pair is stripped, and a value may not end in a quote it did
not open.  A key may be given once per section, even across repeated headers
of that section.  Subcommands: run, verify, sweep-nu, probe-contraction.  A
config is valid or invalid whatever the subcommand: every value is read and
checked before anything is written.  Exit status: 0 ok, 1 a check failed, 2
config error (the message names the key, the path of a config that cannot be
read, or the path:line of a byte that is not UTF-8; an empty output.directory
is one), 3 any other error, such as an OS error or a SolverError.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from .energy import free_energy
from .grid import GridSpec, PhaseState, ScalarField, save_field, save_field_raw
from .model import MobilityKind, MobilitySpec, ModelSpec, Potential, PotentialSpec
from .scheme import (HGateError, SchemeParams, StepReport, h_star, outside_hypotheses,
                     run as scheme_run, validate_initial)
from .verify import (
    check_box,
    check_dissipation,
    check_energy_bound,
    check_gamma_sandwich,
    check_linfty,
    check_theta_oracle,
    nu_limit_study,
    random_admissible_v,
    random_grains_field,
    random_smooth_field,
    validate_nu_schedule,
)
from .vstep import v_step

__all__ = ["RunConfig", "parse_config", "make_initial", "main"]


class ConfigError(ValueError):
    pass


CONFIG_KEYS = {
    "model": {"potential", "c", "u", "o_star", "iota_star", "mobility", "kappa", "a0", "a", "b"},
    "grid": {"dim", "shape", "dx"},
    "scheme": {"h", "h_frac", "nu", "n_steps", "record_every", "override_h_gate"},
    "init": {"kind", "seed", "amplitude", "n_grains"},
    "output": {"directory", "formats"},
    "verify": {"n_oracle"}, "sweep": {"nus"}, "probe": {"n_probes"},
}
_REQUIRED = object()
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class RunConfig:
    """Parsed config: section dicts plus a digest of the canonical text
    (the init seed is kept out of the digest and reported alongside it).
    Sections and keys outside ``CONFIG_KEYS`` are rejected."""

    def __init__(self, sections, path="<memory>"):
        for section, entries in sections.items():
            if section not in CONFIG_KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key in entries:
                if key not in CONFIG_KEYS[section]:
                    raise ConfigError(f"{path}: unknown key {section}.{key}")
        self.sections = sections

    def get(self, section, key, default=_REQUIRED, cast=str):
        try:
            raw = self.sections[section][key]
        except KeyError:
            if default is _REQUIRED:
                raise ConfigError(f"{section}.{key}: missing required key") from None
            return default
        try:
            if cast is bool:
                if raw.strip().lower() not in _BOOLS:
                    raise ValueError("not one of " + "/".join(_BOOLS))
                return _BOOLS[raw.strip().lower()]
            return cast(raw)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({err})") from None

    @property
    def digest(self) -> str:
        """Hash of the canonicalized mathematical configuration (the output
        section and the seed identify nothing about the computation)."""
        lines = []
        for sec in sorted(self.sections):
            if sec == "output":
                continue
            for key in sorted(self.sections[sec]):
                if (sec, key) == ("init", "seed"):
                    continue
                lines.append(f"{sec}.{key}={self.sections[sec][key]}")
        blob = "\n".join(lines).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @property
    def seed(self) -> int:
        return self.get("init", "seed", default=0, cast=_nonnegative_int)


def parse_config(path) -> RunConfig:
    sections = {}
    first_line = {}
    current = None
    try:
        fh = open(path, encoding="utf-8-sig", errors="surrogateescape")  # checked per line
    except OSError as err:
        raise ConfigError(f"{path}: cannot read the config ({err.strerror})") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode(errors="surrogateescape").decode()
            except UnicodeDecodeError as err:
                raise ConfigError(f"{path}:{lineno}: the config is not UTF-8 ({err})") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, value = (t.strip() for t in line.split("=", 1))
            key = key.lower()
            if (current, key) in first_line:
                raise ConfigError(f"{path}:{lineno}: {current}.{key} given twice "
                                  f"(first at line {first_line[current, key]})")
            first_line[current, key] = lineno
            quoted = value[:1] in ("'", '"')
            if (quoted or value[-1:] in ("'", '"')) and (len(value) < 2 or value[-1] != value[0]):
                raise ConfigError(f"{path}:{lineno}: {current}.{key}: the quote in {value!r} is "
                                  "unpaired (a '#' starts a comment even inside quotes)")
            sections[current][key] = value[1:-1] if quoted else value
    return RunConfig(sections, path=str(path))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _section(name):
    """Re-raises a ValueError from building section ``name`` as a ConfigError
    naming the section; a ConfigError already names its key and passes as is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{name} section: {err}") from None


def build_model(cfg: RunConfig) -> ModelSpec:
    with _section("model"):
        setting = Potential.from_token(cfg.get("model", "potential", default="g1"))
        if setting is Potential.LOGARITHMIC:
            o_def, i_def = 0.05, 0.95
        else:
            o_def, i_def = 0.0, 1.0
        potential = PotentialSpec(
            setting=setting,
            c=cfg.get("model", "c", default=1.0, cast=float),
            u=cfg.get("model", "u", default=0.0, cast=float),
            o_star=cfg.get("model", "o_star", default=o_def, cast=float),
            iota_star=cfg.get("model", "iota_star", default=i_def, cast=float),
        )
        mobility = MobilitySpec(
            kind=MobilityKind.from_token(cfg.get("model", "mobility", default="kobayashi")),
            kappa=cfg.get("model", "kappa", default=1e-2, cast=float),
            a0=cfg.get("model", "a0", default=1.0, cast=float),
            a=cfg.get("model", "a", default=1.0, cast=float),
            b=cfg.get("model", "b", default=1.0, cast=float),
        )
    return ModelSpec(potential, mobility)


def build_grid(cfg: RunConfig) -> GridSpec:
    dim = cfg.get("grid", "dim", default=1, cast=int)
    shape = cfg.get("grid", "shape", cast=lambda s: tuple(int(t) for t in s.lower().split("x")))
    with _section("grid"):
        return GridSpec(dim, shape, cfg.get("grid", "dx", default=1.0, cast=float))


def build_scheme_params(cfg: RunConfig, model: ModelSpec, override_h_gate=False) -> SchemeParams:
    """The scheme section as SchemeParams; an h at or above h* without the
    override is a config error, so no command writes before the gate."""
    h = cfg.get("scheme", "h", default=None, cast=float)
    frac = cfg.get("scheme", "h_frac", default=None, cast=float)
    if (h is None) == (frac is None):
        raise ConfigError("scheme: give exactly one of h / h_frac")
    if frac is not None:
        if not (0.0 < frac < 1.0):
            raise ConfigError(f"scheme.h_frac: must be in (0, 1), got {frac}")
        h = frac * h_star(model)
    with _section("scheme"):
        params = SchemeParams(
            h=h,
            nu=cfg.get("scheme", "nu", default=0.0, cast=float),
            n_steps=cfg.get("scheme", "n_steps", default=1, cast=int),
            record_every=cfg.get("scheme", "record_every", default=1, cast=int),
            override_h_gate=(cfg.get("scheme", "override_h_gate", default=False, cast=bool)
                             or override_h_gate),
        )
    try:
        outside_hypotheses(model, params)
    except HGateError as err:
        raise ConfigError(f"scheme.{err} (scheme.override_h_gate or --override-h-gate)") from None
    return params


def make_initial(kind: str, grid: GridSpec, model: ModelSpec, seed: int,
                 amplitude: float = 0.8, n_grains: int = 4) -> PhaseState:
    """Admissible initial data: 'wells' (constants at a well bottom),
    'random' (smooth seeded fields inside the boxes), or 'grains' (piecewise
    constant orientation on Voronoi cells, order parameters near 1)."""
    rng = np.random.default_rng(seed)
    o, i = model.o_star, model.iota_star
    kind = kind.strip().lower()
    if kind == "wells":
        w = ScalarField(grid, np.full(grid.shape, i))
        e = ScalarField(grid, np.ones(grid.shape))
        th = ScalarField(grid, np.zeros(grid.shape))
    elif kind == "random":
        w, e = random_admissible_v(grid, model, rng)
        th = random_smooth_field(grid, rng, amplitude=amplitude)
    elif kind == "grains":
        th = random_grains_field(grid, rng, n_grains=n_grains, amplitude=amplitude)
        w = ScalarField(grid, np.full(grid.shape, o + 0.95 * (i - o)))
        e = ScalarField(grid, np.full(grid.shape, 0.95))
    else:
        raise ConfigError(f"init.kind: unknown kind {kind!r}")
    state = PhaseState(w, e, th)
    report = validate_initial(state, model)
    if not report.passed:
        raise ConfigError("generated initial data failed validation:\n" + str(report))
    return state


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

ENERGY_COLUMNS = ("step,t,dirichlet_v,gamma,g,wtv,nu_dirichlet,total,diss_v,"
                  "diss_theta,v_outer_iters,v_inner_iters,theta_iters,theta_start_ratio,"
                  "duality_gap,contraction_ratio,max_box_violation,linf_theta")


class OutputSink:
    """Writes the energy log as rows arrive and field snapshots on record
    steps.  Numbers are written with repr so re-parsing is bitwise exact."""

    def __init__(self, outdir, digest, seed, formats=("csv",)):
        self.outdir = outdir
        self.digest = digest
        self.seed = seed
        self.formats = formats
        os.makedirs(outdir, exist_ok=True)
        self._fh = open(os.path.join(outdir, "energy.csv"), "w")
        self._fh.write(f"# config {digest} seed {seed}\n")
        self._fh.write(ENERGY_COLUMNS + "\n")

    def write_initial(self, state: PhaseState, energy):
        linf = float(np.abs(state.theta.values).max())
        self.on_step(StepReport(step=0, t=0.0, diss_v=0.0, diss_theta=0.0, v_outer_iters=0,
                                v_inner_iters=0, theta_iters=0, theta_start_ratio=0.0,
                                duality_gap=0.0, contraction_ratio=0.0, box_violation=0.0,
                                linf_in=0.0, linf_theta=linf), energy)
        self.on_snapshot(0, state)

    def on_step(self, rep: StepReport, energy):
        cells = [str(rep.step), repr(rep.t), repr(energy.dirichlet_v), repr(energy.gamma_term),
                 repr(energy.g_term), repr(energy.wtv_term),
                 repr(energy.nu_dirichlet_term), repr(energy.total), repr(rep.diss_v),
                 repr(rep.diss_theta), str(rep.v_outer_iters), str(rep.v_inner_iters),
                 str(rep.theta_iters), repr(rep.theta_start_ratio), repr(rep.duality_gap),
                 repr(rep.contraction_ratio), repr(rep.box_violation), repr(rep.linf_theta)]
        self._fh.write(",".join(cells) + "\n")

    def on_snapshot(self, step, state: PhaseState):
        header = (f"config {self.digest} seed {self.seed} step {step}",)
        for name, fld in (("w", state.w), ("eta", state.eta), ("theta", state.theta)):
            base = os.path.join(self.outdir, f"step_{step:06d}_{name}")
            if "csv" in self.formats:
                save_field(base + ".csv", fld, extra_header_lines=header)
            if "raw" in self.formats:
                save_field_raw(base + ".raw", fld,
                               extra_meta_lines=[f"config = {self.digest}",
                                                 f"seed = {self.seed}",
                                                 f"step = {step}"])

    def close(self):
        self._fh.close()


def _write_table(job, name, header, rows):
    """Writes the table ``name`` into the job's output directory: the config
    line, the header and one line per row of preformatted cells."""
    os.makedirs(job.outdir, exist_ok=True)
    path = os.path.join(job.outdir, name)
    with open(path, "w") as fh:
        fh.write(f"# config {job.digest} seed {job.seed}\n{header}\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _formats(text):
    tokens = tuple(t.strip() for t in text.split(","))
    unknown = set(tokens) - {"csv", "raw"}
    if unknown:
        raise ValueError(f"unknown format {sorted(unknown)[0]!r}; use csv and/or raw")
    return tokens


def _checked(cast, ok, why):
    """A config cast that raises ValueError(why) when ok(value) is false."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise ValueError(why)
        return value
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "must be at least 1")
_nonnegative_int = _checked(int, lambda n: n >= 0, "must be nonnegative")
_finite_float = _checked(float, math.isfinite, "must be finite")
_nonempty = _checked(str, bool, "must not be empty")


def _initial_state(cfg, grid, model):
    return make_initial(
        cfg.get("init", "kind", default="random"),
        grid,
        model,
        seed=cfg.seed,
        amplitude=cfg.get("init", "amplitude", default=0.8, cast=_finite_float),
        n_grains=cfg.get("init", "n_grains", default=4, cast=_positive_int),
    )


def _setup(args) -> SimpleNamespace:
    """The one read of the config: checks every value any subcommand uses, so
    a config is valid or not whatever the subcommand, and returns them before
    any command writes."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.sections.setdefault("init", {})["seed"] = str(args.seed)
    if args.out is not None:
        cfg.sections.setdefault("output", {})["directory"] = args.out
    model = build_model(cfg)
    grid = build_grid(cfg)
    return SimpleNamespace(
        model=model,
        grid=grid,
        params=build_scheme_params(cfg, model, override_h_gate=args.override_h_gate),
        outdir=cfg.get("output", "directory", default="out", cast=_nonempty),
        formats=cfg.get("output", "formats", default=("csv",), cast=_formats),
        state=_initial_state(cfg, grid, model),
        n_oracle=cfg.get("verify", "n_oracle", default=6, cast=_positive_int),
        n_probes=cfg.get("probe", "n_probes", default=20, cast=_positive_int),
        nus=cfg.get("sweep", "nus", default=tuple(2.0**-k for k in range(1, 9)),
                    cast=lambda s: validate_nu_schedule(s.split(","))),
        digest=cfg.digest,
        seed=cfg.seed,
        # the flag alone, not the config key: probe-contraction also probes at 2 h*
        probe_beyond_gate=args.override_h_gate,
    )


def _run_logged(job):
    """Time loop from the job's initial state, with its energy log and snapshots."""
    sink = OutputSink(job.outdir, job.digest, job.seed, job.formats)
    try:
        sink.write_initial(job.state, free_energy(job.state, job.model, job.params.nu))
        return scheme_run(job.state, job.model, job.params, sink=sink)
    finally:
        sink.close()


def cmd_run(job) -> int:
    traj = _run_logged(job)
    flag = " (outside theorem hypotheses)" if traj.outside_hypotheses else ""
    print(f"run complete: {traj.n_steps} steps, final energy "
          f"{traj.energies[-1].total:.6e}{flag}")
    print(f"energy log: {os.path.join(job.outdir, 'energy.csv')}")
    return 0


def cmd_verify(job) -> int:
    traj = _run_logged(job)
    results = [
        check_dissipation(traj),
        check_box(traj),
        check_linfty(traj),
        check_energy_bound(traj, job.model, job.grid),
    ]
    if job.model.mobility.delta1 > 0:
        results.append(check_gamma_sandwich(job.model, job.params.nu, n_samples=100,
                                            seed=job.seed))
    results.append(check_theta_oracle(n_instances=job.n_oracle, seed=job.seed))
    _write_table(job, "checks.csv", "name,passed,worst_violation,tolerance,context",
                 [(f'"{r.name}"', str(int(r.passed)), repr(r.worst_violation),
                   repr(r.tolerance), f'"{r.context}"') for r in results])
    for r in results:
        print(r)
    return 0 if all(r.passed for r in results) else 1


def cmd_sweep_nu(job) -> int:
    report = nu_limit_study(job.state, job.model, job.nus, job.params)
    path = _write_table(job, "sweep.csv", "nu,nu_dirichlet_aggregate,wtv_aggregate",
                        [(repr(nu), repr(agg), repr(wtv)) for nu, agg, wtv in
                         zip(report.nus, report.nu_dirichlet_aggregates, report.wtv_aggregates)])
    print(report)
    print(f"sweep table: {path}")
    return 0 if report.passed else 1


def cmd_probe_contraction(job) -> int:
    model, h, c2 = job.model, job.params.h, job.model.c2_norm
    inner_tol = 1e-13 * np.sqrt(job.grid.volume)
    rows = []

    def probe(h, first_seed, count, guarantee, flagged):
        for seed in range(first_seed, first_seed + count):
            st = make_initial("random", job.grid, model, seed=seed)
            _, rep = v_step((st.w, st.eta), st.theta, model, job.params.nu, h,
                            inner_tol=inner_tol)
            rows.append((h, seed, rep.final_contraction_ratio, guarantee, flagged))

    probe(h, job.seed, job.n_probes, h * c2 * (1.0 + 1e-6), False)
    if job.probe_beyond_gate:
        h_big = 2.0 * h_star(model)
        probe(h_big, job.seed + 1000, max(3, job.n_probes // 4), h_big * c2, True)
    ok = all(ratio <= guard for _, _, ratio, guard, flagged in rows if not flagged)
    path = _write_table(job, "contraction.csv",
                        "h,seed,measured_ratio,guarantee_hL,outside_hypotheses",
                        [(repr(h), str(seed), repr(ratio), repr(guard), str(int(flagged)))
                         for h, seed, ratio, guard, flagged in rows])
    for h, seed, ratio, guard, flagged in rows:
        tag = "probe(out-of-hypothesis)" if flagged else "probe"
        note = " exceeds guarantee" if ratio > guard else ""
        print(f"{tag}: h={h:.6g} seed={seed} ratio={ratio:.6g} "
              f"guarantee={guard:.6g}{note}")
    print(f"contraction table: {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grainflow",
        description="Batch solver and verification harness for the coupled "
                    "phase-field / weighted-TV grain boundary system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", cmd_run),
        ("verify", cmd_verify),
        ("sweep-nu", cmd_sweep_nu),
        ("probe-contraction", cmd_probe_contraction),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--override-h-gate", action="store_true")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(_setup(args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
