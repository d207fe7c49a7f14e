"""Configuration-driven experiment runner.

Each subcommand reproduces one checkable claim end to end (dispersion tables,
critical sets, Green's-function decay, covariance transport and its limit,
Gibbs relaxation, the central limit gates, mixing decay) and writes
machine-readable reports.  Outputs are deterministic given seeds: floats are
printed with %.17g, JSON keys are sorted, and no timestamps appear anywhere.
manifest.json records the effective config, which --config does not yet
accept as written.

Exit codes: 0 success, 1 usage error, 2 condition failure (a ConditionReport
with verdict fail), 3 statistical acceptance-gate failure, 4 numerical fault
(an imaginary residue above tolerance, an indefinite density, or two routes
to one number that disagree).  Codes 1, 2 and 4 come from one table,
_FAILURES, keyed by the class of the exception a check raises.

The sampling commands (ensemble, gibbs, clt) stream their samples through
stats.stream_ensemble in fixed-byte chunks, so their memory does not grow with
the ensemble size.  report writes its dispersion stage in a forked helper
while its later stages run, with the bytes of the stages run in turn
(_WrittenAhead).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._lattice import (
    Helper,
    NumericalFault,
    check_node_count,
    current_cpu,
    fork_is_safe,
    offset_cube,
    pickled,
    theta_axis,
)
from .covariance import (
    TestField,
    covariance_from_density,
    evolve_density,
    gibbs_density,
    limit_density,
    mixing_integral,
    quadratic_form,
)
from .dynamics import green_cutoff, green_function
from .fields import (
    density_from_covariance,
    density_from_jsonable,
    density_to_jsonable,
    triangular_density,
    white_noise_density,
)
from .kernel import (
    ConditionFailure,
    build_nn_kernel,
    check_E123,
    kernel_from_json,
    random_finite_range_kernel,
)
from .spectral import (
    DELTA_CROSS,
    DELTA_HESS,
    DELTA_NULL,
    check_E4_E5,
    check_ES,
    dispersion_grid,
)
from .stats import (
    characteristic_functional,
    covariance_summary,
    gaussianity_report,
    linear_functional_samples,
    offset_products,
    require_samples,
    stream_ensemble,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITION = 2
EXIT_GATE = 3
EXIT_NUMERICAL = 4


class UsageError(Exception):
    pass


#: exit code and stderr label of each failure class, the first match winning:
#: a ConditionFailure and a NumericalFault are ValueErrors too
_FAILURES = (
    (ConditionFailure, EXIT_CONDITION, "condition failure"),
    (NumericalFault, EXIT_NUMERICAL, "numerical fault"),
    ((UsageError, ValueError), EXIT_USAGE, "usage error"),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------- config

class _Key(NamedTuple):
    """A config key's kind, the constraint on each of its numbers ("finite",
    "positive", "nonnegative" or none), its default (None: the command's, or,
    in a kernel or measure spec, required), and the label under which the keys
    of a spec that share it are reported together."""

    kind: str
    constraint: str = ""
    default: object = None
    label: str = ""


_DIMENSIONS = {"d": _Key("integer", "positive", 1), "n": _Key("integer", "positive", 1)}
_TEMPERATURES = {"T0": _Key("float", "nonnegative", 1.0, "temperatures"),
                 "T1": _Key("float", "nonnegative", 1.0, "temperatures")}
_AMPLITUDE = _Key("float", "positive", 1.0, "transform amplitudes")

#: every config key: the top-level keys, the thresholds, and the keys besides
#: "type" of each kernel and measure type; flags take the same keys (flag m is
#: key mass).  L, grid_L and ensemble are only positive here: their tighter
#: bounds are the command's (an even grid of at least 16 points, each
#: estimator's sample count), checked by the library where they are used.
_TABLE = {
    "L": _Key("integer", "positive", 256),
    "grid_L": _Key("integer", "positive"),  # default: L
    "times": _Key("float list", "finite"),
    "ensemble": _Key("integer", "positive", 10000),
    "seed": _Key("integer", "nonnegative", 0),
    "output": _Key("path", "", "out"),
    "thresholds": {
        "delta_cross": _Key("float", "nonnegative", DELTA_CROSS),
        "delta_hess": _Key("float", "nonnegative", DELTA_HESS),
        "delta_null": _Key("float", "nonnegative", DELTA_NULL),
        "eps": _Key("float", "nonnegative", 0.0),
    },
    "kernel": {
        "nn": {**_DIMENSIONS, "mass": _Key("float or float list", "nonnegative", 1.0)},
        "random": {**_DIMENSIONS, "range": _Key("integer", "nonnegative", 2),
                   "seed": _Key("integer", "nonnegative", 0)},
        "file": {"path": _Key("path")},
    },
    "measure": {
        "triangular": {"nu0": _Key("integer", "positive", 2), **_TEMPERATURES},
        "white": _TEMPERATURES,
        "transformed": {"base": _Key("measure"), "a0": _AMPLITUDE, "a1": _AMPLITUDE},
        "file": {"path": _Key("path")},
    },
}


def _mass_list(text: str):
    vals = [float(v) for v in text.split(",")]
    return vals[0] if len(vals) == 1 else vals


#: per kind: what a config value of it must be, and the parser of a flag token
_KINDS = {"integer": ("an integer", int), "float": ("a number", float),
          "float or float list": ("a number or a list of numbers", _mass_list),
          "float list": ("a list of numbers", None), "path": ("a string", None),
          "measure": ("a measure spec", None)}
_FLAG_NAMES = {"mass": "m"}


def _meets(number, key: _Key) -> bool:
    """Whether a number meets its key's constraint; a float must also be finite."""
    if key.kind != "integer" and not abs(number) <= sys.float_info.max:
        return False
    return {"positive": number > 0, "nonnegative": number >= 0}.get(key.constraint, True)


def _check(values: dict, keys: dict, where: str = "") -> None:
    """Raise a UsageError unless each value is of its key's kind (where names
    the section of a config value) and each of its numbers meets the key's
    constraint.  Booleans are not numbers."""
    for name, value in values.items():
        key = keys[name]
        listed = isinstance(value, list) and key.kind.endswith("list")
        items = value if listed else [value]
        types = {"integer": (int,), "path": (str,)}.get(key.kind, (int, float))
        if not all(type(v) in types for v in items) or key.kind == "float list" and not listed:
            raise UsageError(f"config {where}{name} must be {_KINDS[key.kind][0]}, "
                             f"got {value!r}")
        if key.kind == "float list" and not value:
            # a command would run its default times instead
            raise UsageError(f"config {where}{name} must not be empty")
        if not key.constraint or all(_meets(v, key) for v in items):
            continue
        if key.kind == "integer":
            rule = f"a {key.constraint} integer"
        else:
            rule = "finite" if key.constraint == "finite" else f"finite and {key.constraint}"
        if key.label:
            shown = " ".join(f"{k}={values[k]}" for k in keys if keys[k].label == key.label)
            raise UsageError(f"{key.label} must be {rule}, got {shown}")
        raise UsageError(f"{name} must be {rule}, got {value}")


def _check_spec(spec, section: str) -> dict:
    """A kernel or measure spec of a config file, checked against the table."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise UsageError(f"{section} spec must be an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _TABLE[section]:
        raise UsageError(f"unknown {section} type {kind!r}")
    keys = _TABLE[section][kind]
    unknown = set(spec) - set(keys) - {"type"}
    if unknown:
        raise UsageError(f"unknown {section} keys for type {kind!r}: {sorted(unknown)}")
    if kind == "transformed" and _check_spec(spec.get("base"), section)["type"] == kind:
        raise UsageError("a transformed measure's base cannot itself be transformed")
    # with the defaults filled in, so that a missing path is refused too
    _check({name: spec.get(name, key.default) for name, key in keys.items()
            if key.kind != "measure"}, keys, f"{section} ")
    return spec


def _load_config(path: str) -> dict:
    """The config file's object, every key and value checked against the table."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(doc) - set(_TABLE)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "thresholds" in doc:
        if not isinstance(doc["thresholds"], dict):
            raise UsageError("config thresholds must be a JSON object")
        extra = set(doc["thresholds"]) - set(_TABLE["thresholds"])
        if extra:
            raise UsageError(f"unknown threshold keys: {sorted(extra)}")
        _check(doc["thresholds"], _TABLE["thresholds"], "threshold ")
    for section in ("kernel", "measure"):
        if section in doc:
            _check_spec(doc[section], section)
    _check({k: v for k, v in doc.items() if isinstance(_TABLE[k], _Key)}, _TABLE)
    return doc


def _parse_kv(tokens, what, keys) -> dict:
    """The values of a --<what> flag's key=value tokens, each parsed by its
    key's kind and checked; the keys not given are at their defaults."""
    names = {_FLAG_NAMES.get(name, name): name for name in keys if _KINDS[keys[name].kind][1]}
    out = {name: keys[name].default for name in names.values()}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"--{what} expects key=value tokens, got {tok!r}")
        flag, value = tok.split("=", 1)
        if flag not in names:
            raise UsageError(f"--{what} does not accept {flag!r}")
        try:
            out[names[flag]] = _KINDS[keys[names[flag]].kind][1](value)
        except ValueError:
            raise UsageError(f"--{what} {flag}={value!r} is not a valid value")
    _check(out, keys)
    return out


def _flag_spec(args, section: str, kv_types) -> dict | None:
    """The kernel or measure spec that the command line gives, if any."""
    for kind in kv_types:
        tokens = getattr(args, kind, None)
        if tokens is not None:
            return {"type": kind, **_parse_kv(tokens, kind, _TABLE[section][kind])}
    path = getattr(args, f"{section}_file", None)
    return {"type": "file", "path": path} if path else None


def _typed(value, key: _Key):
    """A checked value with a float kind as floats; any other as it is."""
    if value is None or key.kind not in ("float", "float list"):
        return value
    return float(value) if key.kind == "float" else [float(v) for v in value]


def _merged(flags: dict, config: dict, keys: dict) -> dict:
    """Every key of a section: its flag value over its config value over its
    default, with float kinds as floats.  The flags are checked here, the
    config when it was loaded."""
    given = {name: value for name, value in flags.items() if value is not None}
    _check(given, keys)
    merged = {**config, **given}
    return {name: _typed(merged.get(name, key.default), key)
            for name, key in keys.items() if isinstance(key, _Key)}


def _effective_config(args, command: str) -> dict:
    """Merge flags > CRYSTALSTAT_SEED (seed only) > config file > defaults.

    Every value is checked against the table here, before anything runs.  A
    kernel or measure spec of the config is recorded as written.
    """
    cfg = _load_config(args.config) if args.config else {}
    kernel = _flag_spec(args, "kernel", ("nn", "random")) or cfg.get("kernel")
    if kernel is None:
        raise UsageError("no kernel given (use --nn/--random/--kernel-file or config)")
    measure = _flag_spec(args, "measure", ("triangular", "white")) or cfg.get("measure")
    tokens = getattr(args, "transform", None)  # only the sampling commands take it
    if tokens is not None:
        amplitudes = _parse_kv(tokens, "transform", _TABLE["measure"]["transformed"])
        if measure is None:
            raise UsageError("--transform needs a measure "
                             "(--triangular/--white/--measure-file or config)")
        if measure["type"] == "transformed":
            raise UsageError("--transform cannot wrap the config's transformed measure; "
                             "set its a0 and a1 instead")
        measure = {"type": "transformed", "base": measure, **amplitudes}
    seed = args.seed
    if seed is None and os.environ.get("CRYSTALSTAT_SEED"):
        try:
            seed = int(os.environ["CRYSTALSTAT_SEED"])
        except ValueError:
            raise UsageError("CRYSTALSTAT_SEED must be an integer")
    eff = _merged({"L": args.L, "grid_L": getattr(args, "grid_L", None),
                   "times": [args.t] if args.t is not None else args.times,
                   "ensemble": args.ensemble, "seed": seed, "output": args.output},
                  cfg, _TABLE)
    if eff["grid_L"] is None:
        eff["grid_L"] = eff["L"]
    eff.update(kernel=kernel, measure=measure, command=command, thresholds=_merged(
        {name: getattr(args, name, None) for name in _TABLE["thresholds"]},
        cfg.get("thresholds", {}), _TABLE["thresholds"]))
    return eff


class _MeasureRule(NamedTuple):
    """A command's measure when the run names none (None: one is required),
    and whether the command samples it, which only then takes --transform."""

    default: dict | None
    samples: bool = False


class _Measure(NamedTuple):
    """A run's initial measure: its Gaussian density (a transformed measure's
    base density), the transform's (a0, a1) or None, and the dependence
    radius it declares: 0 for white noise, nu0 - 1 for triangular, a
    transform's base's, and None for a measure file."""

    density: object
    transform: tuple | None
    radius: int | None


class _Run:
    """State of one command: effective config, its measure spec (the config's,
    else the command's default), output directory (created by its first write),
    the E4/E5 waiver of --allow-degenerate, and the kernel, dispersion grids,
    condition reports, initial measure and its limit, each built on first use.

    The stages of ``report`` share one memo and one waiver, so they share the
    kernel, the grid and its E1-E5 reports at each resolution, and the measure
    with its ES check and limit; the memo drops the measure once its limit is
    built.  A build that raises is not stored: every stage that needs it
    retries and records its own failure.
    """

    def __init__(self, eff: dict, memo: dict, allow_degenerate: bool, default_measure=None):
        self.eff = eff
        self.spec = eff["measure"] or default_measure
        self.thr = eff["thresholds"]
        self.L = eff["L"]
        self.outdir = Path(eff["output"])
        self.memo = memo
        self.allow_degenerate = allow_degenerate

    def stage(self, **changes) -> "_Run":
        """A run of the config with changes, on this run's memo and waiver."""
        return _Run(dict(self.eff, **changes), self.memo, self.allow_degenerate, self.spec)

    def time(self) -> float:
        """The one time of a command that samples at a single time: its times
        entry, 50 if none; more than one is a usage error."""
        times = self.eff["times"] or [50.0]
        if len(times) > 1:
            raise UsageError(f"{self.eff['command']} samples at one time, got times {times}")
        return times[0]

    def gate(self, reports) -> None:
        """Raise ConditionFailure if a report failed; the waiver covers E4 and
        E5 only."""
        waived = ("E4", "E5") if self.allow_degenerate else ()
        if any(r.verdict == "fail" and r.condition not in waived for r in reports):
            raise ConditionFailure(reports)

    def kernel(self):
        """The run's kernel; an L or grid_L too large to index is refused here,
        before any grid or measure is built."""
        if "kernel" not in self.memo:
            kernel = _build_kernel(self.eff["kernel"])
            for name in ("L", "grid_L"):
                check_node_count(self.eff[name], kernel.d, name)
            self.memo["kernel"] = kernel
        return self.memo["kernel"]

    def e123(self, symbol=None) -> list:
        """The kernel's E1-E3 reports, checked once per run; symbol is :meth:`grid`'s."""
        if "E123" not in self.memo:
            self.memo["E123"] = check_E123(self.kernel(), symbol)
        return self.memo["E123"]

    def grid(self, L: int):
        """The dispersion grid at resolution L, built once E1-E3 pass :meth:`gate`
        so that kernel defects exit with code 2 before the eigensolver runs.
        The symbol grid at L is built first, so that a symbol that is not
        finite is refused at the run's own resolution.  If E1-E3 are still
        unchecked and L is the E3 scan resolution, the check and the grid
        read that one symbol grid (:func:`check_E123` decides)."""
        if L not in self.memo:
            kernel = self.kernel()
            symbol = kernel.symbol_grid(L)
            self.gate(self.e123(symbol))
            self.memo[L] = dispersion_grid(kernel, L, self.thr["delta_cross"],
                                           self.thr["delta_null"], self.thr["delta_hess"],
                                           symbol)
        return self.memo[L]

    def conditions(self, L: int) -> list:
        """E1-E5 reports of the grid at resolution L."""
        key = ("conditions", L)
        if key not in self.memo:
            grid = self.grid(L)  # first, so that the grid can share E3's symbol
            self.memo[key] = self.e123() + check_E4_E5(grid)
        return self.memo[key]

    def measure(self) -> _Measure:
        """The run's initial measure, built from its spec at the run's
        resolution on its kernel."""
        if "measure" in self.memo:
            return self.memo["measure"]
        spec, kernel, L = self.spec, self.kernel(), self.L
        if spec is None:
            raise UsageError("this command needs an initial measure "
                             "(--triangular/--white/--measure-file or config)")
        base, transform = spec, None
        if spec["type"] == "transformed":
            v = _merged({}, spec, _TABLE["measure"]["transformed"])
            base, transform = v["base"], (v["a0"], v["a1"])
        v = _merged({}, base, _TABLE["measure"][base["type"]])
        if base["type"] == "triangular":
            if kernel.n != 1:
                raise UsageError("triangular measure is scalar; kernel has n > 1")
            density = triangular_density(v["nu0"], kernel.d, v["T0"], v["T1"], L)
            radius = v["nu0"] - 1
        elif base["type"] == "white":
            density, radius = white_noise_density(v["T0"], v["T1"], kernel.n, kernel.d, L), 0
        else:
            try:
                doc = json.loads(Path(v["path"]).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read measure file: {exc}")
            density, radius = density_from_jsonable(doc), None
            if density.L != L or density.d != kernel.d or density.n != kernel.n:
                raise UsageError("measure file does not match the lattice/kernel shape")
            density.hermitian_sqrt()  # an indefinite file is a numerical fault; cached
        self.memo["measure"] = _Measure(density, transform, radius)
        return self.memo["measure"]

    def limit(self):
        """(ES report, limit density) of the run's measure, which must be
        Gaussian.

        E1-E5 are gated before the measure is read, ES once its density
        exists (:meth:`limit_of`).  Once the limit is built no stage reads
        the measure, so the memo drops it: a caller that needs the initial
        density too takes it from :meth:`measure` first."""
        if "limit" not in self.memo:
            self.gate(self.conditions(self.L))
            measure = self.measure()
            if measure.transform is not None:
                raise UsageError(f"{self.eff['command']} needs a Gaussian measure "
                                 "with an explicit density")
            self.memo["limit"] = self.limit_of(measure.density)
            del self.memo["measure"]
        return self.memo["limit"]

    def limit_of(self, q0):
        """(ES report, limit density) of q0 on the grid at the run's resolution,
        once E1-E5 and ES pass :meth:`gate`.  ``clt`` calls it on the density
        its samples estimate."""
        grid = self.grid(self.L)
        es = check_ES(grid, q0)
        self.gate(self.conditions(self.L) + [es])
        return es, limit_density(q0, grid, es_report=es)


def _build_kernel(spec: dict):
    v = _merged({}, spec, _TABLE["kernel"][spec["type"]])
    if spec["type"] == "nn":
        return build_nn_kernel(v["d"], v["n"], v["mass"])
    if spec["type"] == "random":
        return random_finite_range_kernel(v["d"], v["n"], v["range"], v["seed"])
    try:
        text = Path(v["path"]).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read kernel file: {exc}")
    return kernel_from_json(text)


# ---------------------------------------------------------------- output

def _zkey(z) -> str:
    return ",".join(str(int(c)) for c in z)


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _write_json(path: Path, obj) -> None:
    """obj as sorted, indented JSON; a non-finite float is a numerical fault,
    raised before the file (or its directory) is created."""
    try:
        text = json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFault(f"{path.name}: {exc}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _bit_codes(a):
    """The distinct float64 bit patterns of the entries of a float array, as
    floats in ascending order of their bits, and the int32 code of each entry
    in C order, its pattern's place among them: np.unique's patterns and
    inverse, from one argsort and no int64 codes.  Equal entries have equal
    bits, so the codes do not depend on how the sort orders them."""
    bits = np.ravel(a).astype(np.float64, casting="safe", copy=False).view(np.uint64)
    order = np.argsort(bits)
    ordered = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.cumsum(new, dtype=np.int32)
    rank -= 1
    codes = np.empty(bits.size, dtype=np.int32)
    codes[order] = rank
    return ordered[new].view(np.float64), codes


def _format17(values) -> list:
    """The %.17g string of each entry of a 1-D float array, from one % call
    for the whole batch: the strings of one call per value, at less cost per
    value."""
    if not len(values):
        return []
    return ("\n".join(["%.17g"] * len(values)) % tuple(values.tolist())).split("\n")


def _lookup(strings, index) -> list:
    """strings[i] for every i of an integer index array, in C order."""
    return np.asarray(strings, dtype=object)[np.ravel(index)].tolist()


def _by_block(block, blocks: int) -> list:
    """The indices i grouped by block[i]: entry b holds, ascending, the
    indices whose block is b, for b in range(blocks)."""
    order = np.argsort(block, kind="stable").astype(np.int32)
    return np.split(order, np.searchsorted(block[order], np.arange(1, blocks)))


#: rows per block in _write_csv: few writes, and the fields held at once
#: bounded by the block
_CSV_BLOCK_ROWS = 4096


class _FloatColumn:
    """The %.17g fields of a value column of a table written in blocks of
    _CSV_BLOCK_ROWS rows, each distinct float64 bit pattern formatted once per
    table, in the first block that reads it.

    A pattern read in more than one block holds one of the first `kept`
    string slots from its first block to its last.  A pattern read in one
    block only takes one of the slots after those, and the next block reuses
    them.  So the strings held at once are those of the patterns read on both
    sides of a block boundary, and at most one block's worth more.
    """

    def __init__(self, values, shape):
        self.values = np.ravel(np.broadcast_to(values, shape))
        distinct, codes = _bit_codes(self.values)
        blocks = -(-codes.size // _CSV_BLOCK_ROWS)
        block = np.arange(codes.size, dtype=np.int32) // _CSV_BLOCK_ROWS
        first = np.full(len(distinct), blocks, dtype=np.int32)
        last = np.zeros_like(first)
        np.minimum.at(first, codes, block)
        np.maximum.at(last, codes, block)
        kept = np.flatnonzero(first != last)
        once = np.flatnonzero(first == last)
        once = once[np.argsort(first[once], kind="stable")]
        # per block, the number of patterns that no other block reads
        self.once_in = np.bincount(first[once], minlength=blocks)
        slot = np.empty(len(distinct), dtype=np.int32)
        slot[kept] = np.arange(len(kept))
        slot[once] = (len(kept) + np.arange(len(once))
                      - np.repeat(np.cumsum(self.once_in) - self.once_in, self.once_in))
        self.slot = slot[codes]
        self.kept = len(kept)
        self.born = _by_block(first[kept], blocks)
        self.dead = _by_block(last[kept], blocks)
        self.strings = np.empty(self.kept + self.once_in.max(initial=0), dtype=object)

    def fields(self, b: int, rows: slice) -> list:
        """The fields of the rows of block b, in order."""
        slot = self.slot[rows]
        fresh = np.concatenate([self.born[b], np.arange(self.kept, self.kept + self.once_in[b])])
        found = np.empty(len(self.strings))
        found[slot] = self.values[rows]
        self.strings[fresh] = _format17(found[fresh])
        fields = self.strings[slot].tolist()
        self.strings[self.dead[b]] = None
        self.strings[self.kept:] = None
        return fields


def _axis(shape, a: int) -> np.ndarray:
    """The index along axis a of each entry of an array of this shape, as an
    array that broadcasts to the shape."""
    return np.arange(shape[a]).reshape((-1,) + (1,) * (len(shape) - a - 1))


def _write_csv(path: Path, shape, columns) -> None:
    """A header line, then one line per entry of an array of this shape, in C
    order.  A column is (header, labels, codes), whose field is labels[code],
    or (header, values), whose field is the %.17g of the value; codes and
    values broadcast to the shape.

    No field holds a comma, a quote or a newline (numbers and the fixed flag
    names), so joining with commas writes the bytes csv.writer would.  Rows
    are formatted and written in blocks of _CSV_BLOCK_ROWS, and each distinct
    float64 bit pattern of a value column is formatted once per table
    (_FloatColumn), so no string column of the whole table is ever built.
    """
    rows = int(np.prod(shape))
    sources = [(column[1], np.broadcast_to(column[2], shape)) if len(column) == 3
               else (None, _FloatColumn(column[1], shape)) for column in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(column[0] for column in columns) + "\n")
        for b, start in enumerate(range(0, rows, _CSV_BLOCK_ROWS)):
            block = slice(start, min(start + _CSV_BLOCK_ROWS, rows))
            index = np.unravel_index(np.arange(block.start, block.stop), shape)
            fields = [_lookup(labels, a[index]) if labels is not None else a.fields(b, block)
                      for labels, a in sources]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _stage(body, run: _Run, options: dict) -> int:
    """Run one command body on run; a body that returns, with whatever code,
    leaves ``manifest.json``, and one that raises leaves none."""
    from . import __version__

    code = body(run, **options)
    _write_json(run.outdir / "manifest.json", {
        "package": {"name": "crystalstat", "version": __version__},
        "config": {k: v for k, v in run.eff.items() if k != "command"},
        "command": run.eff["command"],
    })
    return code


def _gate_exit(ok, name) -> int:
    """Exit code of a statistical acceptance gate; a failure is named on stderr."""
    if ok:
        return EXIT_OK
    print(f"acceptance gate failed: {name}", file=sys.stderr)
    return EXIT_GATE


def _axis_offsets(d: int):
    """The offsets 0, 1 and 2 steps along the first axis."""
    return [(k,) + (0,) * (d - 1) for k in range(3)]


def _power_fit(times, values):
    """Least-squares fit of log|value| against log t; returns slope/intercept/r2."""
    pts = [(t, abs(v)) for t, v in zip(times, values) if t > 0 and abs(v) > 0]
    if len(pts) < 2:
        return {"slope": 0.0, "intercept": 0.0, "r2": 0.0, "points": len(pts)}
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "points": len(pts)}


# ---------------------------------------------------------------- subcommands

def _dispersion_table(run):
    """The dispersion stage up to its writes: the grid, its E1-E5 reports and
    every column of the table, built here; returns write(), which writes
    dispersion.csv and conditions.json, prints the stage's line and returns
    its exit code.  write formats and writes only: it evaluates no cached
    grid property and calls no BLAS or LAPACK, so ``report`` may run it in
    a forked helper."""
    outdir = run.outdir
    grid = run.grid(run.eff["grid_L"])
    reports = run.conditions(grid.L)
    # one row per (node, branch); the flags of each of the 8 combinations of
    # a node's C0, Cstar and Ck sit at index C0 + 2 Cstar + 4 Ck
    shape = grid.branch_values.shape
    theta = _format17(theta_axis(grid.L))
    flags = ["|".join(name for bit, name in enumerate(("C0", "Cstar", "Ck"))
                      if combo >> bit & 1) for combo in range(8)]
    code = grid.c0 + 2 * grid.crossing + 4 * grid.ck
    columns = ([(f"theta_{a + 1}", theta, _axis(shape, a)) for a in range(grid.d)]
               + [("k", [str(b) for b in range(grid.n)], _axis(shape, grid.d)),
                  ("omega_k", grid.branch_values),
                  ("grad_norm", np.linalg.norm(grid.branch_gradients, axis=-1)),
                  ("D_k", grid.hessian_determinants), ("flags", flags, code[..., None])])
    line = (f"dispersion: L={grid.L} branches={grid.n} "
            f"omega_max={grid.omega_max:.6g} -> {outdir}")

    def write() -> int:
        _write_csv(outdir / "dispersion.csv", shape, columns)
        _write_json(outdir / "conditions.json", [r.to_jsonable() for r in reports])
        print(line)
        return EXIT_OK

    return write


def _cmd_dispersion(run) -> int:
    return _dispersion_table(run)()


def _cmd_critical(run) -> int:
    outdir = run.outdir
    grid = run.grid(run.eff["grid_L"])
    reports = run.conditions(grid.L)
    counts = {name: int(flags.sum()) for name, flags in (
        ("C0", grid.c0), ("Cstar", grid.crossing), ("Ck", grid.ck), ("combined", grid.critical))}
    fr = {name: count / grid.c0.size for name, count in counts.items()}
    _write_json(outdir / "critical.json", {
        "L": grid.L, "fractions": fr, "counts": counts,
        "thresholds": {name: getattr(grid, name)
                       for name in ("delta_cross", "delta_hess", "delta_null")}})
    _write_json(outdir / "conditions.json", [r.to_jsonable() for r in reports])
    print(f"critical: combined fraction {fr['combined']:.6g} -> {outdir}")
    return EXIT_OK


def _cmd_green(run, dump_radius) -> int:
    eps, outdir, L = run.thr["eps"], run.outdir, run.L
    if dump_radius < 0 or 2 * dump_radius + 1 > L:
        raise UsageError("--dump-radius must fit inside the lattice window")
    grid = run.grid(L)
    times = run.eff["times"] or [5.0, 10.0, 20.0, 40.0]
    cutoff = green_cutoff(grid, eps)
    # the window of offsets -r..r on every axis, wrapped onto the lattice
    wrap = np.arange(-dump_radius, dump_radius + 1) % L
    sups, windows = [], []
    for t in times:
        G = green_function(grid, t, cutoff)
        sups.append(float(np.max(np.abs(G))))
        windows.append(G[np.ix_(*(wrap,) * grid.d)])
    window = np.stack(windows)  # (time, *offset, row, col)
    offset = [str(c) for c in range(-dump_radius, dump_radius + 1)]
    component = [str(c) for c in range(window.shape[-1])]
    _write_csv(outdir / "green.csv", window.shape,
               [("t", _format17(np.array(times, dtype=float)), _axis(window.shape, 0))]
               + [(f"x{a + 1}", offset, _axis(window.shape, a + 1)) for a in range(grid.d)]
               + [("row", component, _axis(window.shape, grid.d + 1)),
                  ("col", component, _axis(window.shape, grid.d + 2)), ("value", window)])
    fit = _power_fit(times, sups)
    _write_json(outdir / "green_fit.json",
                {"times": times, "sup_abs": sups, "fit": fit, "eps": eps})
    print(f"green: sup|G| fit slope {fit['slope']:.4f} (r2 {fit['r2']:.4f}) -> {outdir}")
    return EXIT_OK


def _cmd_evolve(run) -> int:
    outdir = run.outdir
    kernel = run.kernel()
    grid = run.grid(run.L)
    # E1-E5 are gated before the measure is read, as run.limit() gates them
    run.gate(run.conditions(run.L))
    q0 = run.measure().density
    es, qinf = run.limit()
    times = run.eff["times"] or [0.0, 10.0, 50.0]
    offsets = _axis_offsets(kernel.d)
    Mi = covariance_from_density(qinf, offsets)
    Mt = np.stack([covariance_from_density(evolve_density(q0, grid, t), offsets)
                   for t in times])
    # entry (a, b) of a 2n x 2n matrix has a = i n + k and b = j n + l
    shape = Mt.shape[:2] + (2, kernel.n, 2, kernel.n)
    component = [str(v) for v in range(max(2, kernel.n))]
    _write_csv(outdir / "convergence.csv", shape,
               [("t", _format17(np.array(times, dtype=float)), _axis(shape, 0))]
               + [(f"z{a + 1}", [str(z[a]) for z in offsets], _axis(shape, 1))
                  for a in range(kernel.d)]
               + [(name, component, _axis(shape, a)) for name, a in zip("ijkl", (2, 4, 3, 5))]
               + [("q_t", Mt.reshape(shape)), ("q_inf", Mi.reshape(shape[1:])),
                  ("abs_diff", np.abs(Mt - Mi).reshape(shape))])
    _write_json(outdir / "limit.json", {"excluded_fraction": qinf.excluded_fraction,
                                        "es": es.to_jsonable()})
    print(f"evolve: wrote convergence table for t={times} -> {outdir}")
    return EXIT_OK


def _sampled_covariance(run, q0, t, transform=None):
    """(offsets, mean, se): the axis offsets and the covariance summary there
    of the run's ensemble of q0, transformed by transform if given, at time t."""
    offsets = _axis_offsets(run.kernel().d)
    grid = run.grid(run.L)
    products_at = offset_products(offsets)
    products, = stream_ensemble(
        q0, run.eff["ensemble"], run.eff["seed"], grid, t,
        lambda Y0, Yt: (products_at(Yt),), transform=transform)
    return (offsets,) + covariance_summary(products)


def _compare_to_theory(offsets, mean, se, theory):
    """3 sigma gates per entry of the summary (mean, se) at the offsets against
    the covariance of the density theory; returns (rows, all_pass)."""
    table = covariance_from_density(theory, offsets)
    floor_scale = 1.0 + float(np.max(np.abs(table)))
    rows = []
    for z, emp, err, th in zip(offsets, mean, se, table):
        gap = np.abs(emp - th)
        bound = 3.0 * err + 1e-10 * floor_scale
        rows.append({"z": _zkey(z), "empirical": emp, "se": err, "theory": th,
                     "max_gap": float(gap.max()),
                     "max_gap_over_bound": float(np.max(gap / np.maximum(bound, 1e-300))),
                     "pass": bool(np.all(gap <= bound))})
    return rows, all(row["pass"] for row in rows)


def _cmd_ensemble(run) -> int:
    eff, outdir, L = run.eff, run.outdir, run.L
    t = run.time()
    measure = run.measure()
    require_samples(eff["ensemble"], "covariance error bars")
    grid = run.grid(L)
    offsets, mean, se = _sampled_covariance(run, measure.density, t, measure.transform)
    report = {"t": t, "count": eff["ensemble"], "seed": eff["seed"]}
    if measure.transform is None:
        report["offsets"], report["all_pass"] = _compare_to_theory(
            offsets, mean, se, evolve_density(measure.density, grid, t))
    else:
        report["offsets"] = [{"z": _zkey(z), "empirical": m, "se": s}
                             for z, m, s in zip(offsets, mean, se)]
        report["all_pass"] = True
    _write_json(outdir / "ensemble.json", report)
    print(f"ensemble: {eff['ensemble']} samples at t={t}, "
          f"{'all 3-sigma gates pass' if report['all_pass'] else 'GATE FAILURE'} -> {outdir}")
    return _gate_exit(report["all_pass"], "ensemble vs transported density")


def _cmd_limit(run, dump_density) -> int:
    outdir = run.outdir
    es, qinf = run.limit()
    offsets = _axis_offsets(run.kernel().d)
    table = covariance_from_density(qinf, offsets)
    _write_json(outdir / "limit.json", {
        "excluded_fraction": qinf.excluded_fraction, "es": es.to_jsonable(),
        "covariance": {_zkey(z): q for z, q in zip(offsets, table)}})
    if dump_density:
        _write_json(outdir / "density.json", density_to_jsonable(qinf))
    print(f"limit: excluded fraction {qinf.excluded_fraction:.6g} -> {outdir}")
    return EXIT_OK


def _cmd_gibbs(run, T1) -> int:
    eff, outdir, L = run.eff, run.outdir, run.L
    t = run.time()
    kernel = run.kernel()
    q0 = white_noise_density(0.0, T1, kernel.n, kernel.d, L)
    require_samples(eff["ensemble"], "covariance error bars")
    grid = run.grid(L)
    run.gate(run.conditions(L))
    offsets, mean, se = _sampled_covariance(run, q0, t)
    qg = gibbs_density(T1, grid)
    rows, ok = _compare_to_theory(offsets, mean, se, qg)
    report = {"t": t, "T1": T1, "count": eff["ensemble"], "seed": eff["seed"],
              "offsets": rows, "all_pass": ok,
              "excluded_fraction": qg.excluded_fraction}
    _write_json(outdir / "gibbs.json", report)
    print(f"gibbs: {eff['ensemble']} samples at t={t} vs equilibrium, "
          f"{'all 3-sigma gates pass' if ok else 'GATE FAILURE'} -> {outdir}")
    return _gate_exit(ok, "empirical covariance vs Gibbs density")


def _cmd_clt(run, component) -> int:
    eff, outdir, L = run.eff, run.outdir, run.L
    t = run.time()
    kernel = run.kernel()
    if kernel.n != 1:
        raise UsageError("the clt pipeline is scalar (n = 1)")
    psi = TestField.delta(kernel.d, kernel.n, component=component)
    if run.spec["type"] != "transformed" or run.spec["base"]["type"] != "triangular":
        raise UsageError("clt needs a transformed triangular measure")
    measure = run.measure()
    require_samples(eff["ensemble"], "moment diagnostics")
    grid = run.grid(L)
    run.gate(run.conditions(L))
    # the transform is pointwise, so the field depends as far as its base
    offsets = offset_cube(measure.radius, kernel.d)
    products_at = offset_products(offsets)

    products, samples0, samples_t = stream_ensemble(
        measure.density, eff["ensemble"], eff["seed"], grid, t,
        lambda Y0, Yt: (products_at(Y0),
                        linear_functional_samples(Y0, psi),
                        linear_functional_samples(Yt, psi)),
        transform=measure.transform)

    gauss0 = gaussianity_report(samples0)
    platykurtic = (not gauss0["degenerate"]) and gauss0["z_kurtosis"] < -4.0

    mean, _ = covariance_summary(products)
    q0 = density_from_covariance(dict(zip(offsets, mean)), L, provenance="empirical")
    _, qinf = run.limit_of(q0)

    gauss_t = gaussianity_report(samples_t)
    char = characteristic_functional(samples_t, qinf, psi)

    sweep_ok = all(row["gap"] <= 3.0 * row["se"] + 0.02 for row in char["sweep"])
    moments_ok = (not gauss_t["degenerate"]) and \
        abs(gauss_t["z_skewness"]) < 4.0 and abs(gauss_t["z_kurtosis"]) < 4.0
    report = {
        "t": t, "count": samples0.size, "seed": eff["seed"],
        "component": component,
        "initial_moments": gauss0,
        "initial_platykurtic": platykurtic,
        "evolved_moments": gauss_t,
        "characteristic": char,
        "gates": {"platykurtic_start": platykurtic,
                  "gaussian_moments_at_t": moments_ok,
                  "characteristic_sweep": sweep_ok},
        "all_pass": platykurtic and moments_ok and sweep_ok,
    }
    _write_json(outdir / "clt.json", report)
    print(f"clt: start kurtosis z={gauss0.get('z_kurtosis', 0.0):.2f}, "
          f"t={t} moments |z|<4: {moments_ok}, sweep: {sweep_ok} -> {outdir}")
    return _gate_exit(report["all_pass"], "central limit gates")


def _cmd_mixing(run, component) -> int:
    outdir = run.outdir
    kernel = run.kernel()
    psi = TestField.delta(kernel.d, kernel.n, component=component)
    grid = run.grid(run.L)
    _, qinf = run.limit()
    times = run.eff["times"] or [0.0, 10.0, 40.0, 160.0]
    values = [mixing_integral(qinf, grid, psi, psi, t) for t in times]
    fit = _power_fit(times, values)
    _write_json(outdir / "mixing.json", {
        "times": times, "values": values, "fit": fit,
        "component": component,
        "value_at_0": quadratic_form(qinf, psi),
    })
    print(f"mixing: fit slope {fit['slope']:.4f} over t={times} -> {outdir}")
    return EXIT_OK


def _cmd_report(run) -> int:
    """Dispersion, critical, limit and mixing into subdirectories, on one kernel,
    grid, measure and limit; each stage's manifest records the measure spec.

    The dispersion stage builds its table here; where forking is safe, a
    helper forked for the call (_WrittenAhead) writes it and finishes the
    stage while this process runs the others, and the output streams keep
    the order of the stages run in line.  A stage whose table fails to
    build never forks."""
    def stage(name):
        return run.stage(command=name, output=str(run.outdir / name), measure=run.spec)

    started = _dispersion_stage(stage("dispersion"))
    ahead = started if isinstance(started, _WrittenAhead) else None
    later = {}
    with ahead or nullcontext():
        for name, body, options in (
            ("critical", _cmd_critical, {}),
            ("limit", _cmd_limit, {"dump_density": False}),
            ("mixing", _cmd_mixing, {"component": 0}),
        ):
            staged = stage(name)
            later[name] = _exit_code(partial(_stage, body, staged, options), staged)
    stages = {"dispersion": ahead.code if ahead else started, **later}
    worst = max(stages.values())
    _write_json(run.outdir / "summary.json", {"stages": stages, "exit": worst})
    print(f"report: stages {stages} -> {run.outdir}")
    return worst


def _dispersion_stage(stage):
    """report's dispersion stage on stage: its exit code once run here, or
    the _WrittenAhead that finishes it.  The table is built here, and its
    writes follow in a helper where forking is safe, else here; a table
    that fails to build gives its stage's exit code, with no fork.  Once
    forked, this process keeps no reference to the table's columns."""
    write = _exit_code(partial(_dispersion_table, stage), stage)
    if not callable(write):
        return write
    tail = partial(_exit_code, partial(_stage, lambda _: write(), stage, {}), stage)
    return _WrittenAhead(tail) if fork_is_safe() else tail()


class _Recorded:
    """A text stream that appends each write to log as (which, text): which
    is 1 for stdout, 2 for stderr."""

    def __init__(self, log: list, which: int):
        self.log, self.which = log, which

    def write(self, text: str) -> int:
        self.log.append((self.which, text))
        return len(text)

    def flush(self) -> None:
        pass


def _recording(log: list) -> None:
    """Send sys.stdout and sys.stderr to log, in the order written."""
    sys.stdout, sys.stderr = _Recorded(log, 1), _Recorded(log, 2)


def _replay(log: list) -> None:
    for which, text in log:
        (sys.stdout if which == 1 else sys.stderr).write(text)


class _WrittenAhead:
    """tail(), the rest of a stage, run in a helper process forked here
    (_lattice.Helper) and kept off this process's CPU, for the body of a
    with statement to run meanwhile.

    The helper records what tail writes to stdout and stderr, and sends it
    back with tail's exit code, or with its failure pickled.  The body's
    stdout and stderr are held while it runs.  On leaving, the helper is
    joined and reaped, and its text is written out, then the body's, as if
    tail had run before the body; a failure of tail is then raised in place
    of anything the body raised, and the body's text dropped, as if the
    body had never run.  A helper that exits before it reports raises
    RuntimeError with its exit status.
    """

    def __init__(self, tail):
        self.helper = Helper(partial(self._tail, tail), current_cpu())
        self.code = None

    @staticmethod
    def _tail(tail, helper) -> None:
        log = []
        _recording(log)
        try:
            result = (tail(), None)
        except BaseException as exc:
            result = (None, pickled(exc, "dispersion process"))
        helper.send(pickle.dumps(result + (log,)))

    def __enter__(self):
        self.streams, self.held = (sys.stdout, sys.stderr), []
        _recording(self.held)
        return self

    def __exit__(self, *raised):
        sys.stdout, sys.stderr = self.streams
        finished = False
        try:
            message = self.helper.receive()
            if message is None:
                raise RuntimeError(f"the dispersion process {self.helper.ended()} "
                                   "before it reported")
            self.code, failure, log = pickle.loads(message)
            finished = True
        finally:
            self.helper.close(finish=finished)
        _replay(log)
        if failure is not None:
            raise pickle.loads(failure)
        _replay(self.held)


# ---------------------------------------------------------------- wiring

def _add_common(p: _Parser, measure: _MeasureRule | None):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--nn", nargs="+", metavar="KEY=VAL",
                   help="nearest-neighbour kernel, keys d n m (m may be a comma list)")
    p.add_argument("--random", nargs="+", metavar="KEY=VAL",
                   help="random finite-range kernel, keys d n range seed")
    p.add_argument("--kernel-file", help="kernel JSON file")
    p.add_argument("--L", type=int, help="lattice resolution per axis")
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("--ensemble", type=int, help="sample count")
    p.add_argument("--times", nargs="+", type=float, help="time stamps")
    p.add_argument("--t", type=float, help="single time stamp (shorthand)")
    p.add_argument("--delta-cross", type=float, dest="delta_cross")
    p.add_argument("--delta-hess", type=float, dest="delta_hess")
    p.add_argument("--delta-null", type=float, dest="delta_null")
    p.add_argument("--output", help="output directory (default: out)")
    if measure:
        p.add_argument("--triangular", nargs="+", metavar="KEY=VAL",
                       help="triangular measure, keys nu0 T0 T1")
        p.add_argument("--white", nargs="+", metavar="KEY=VAL",
                       help="white-noise measure, keys T0 T1")
        p.add_argument("--measure-file", help="measure density JSON file")
    if measure and measure.samples:
        p.add_argument("--transform", nargs="+", metavar="KEY=VAL",
                       help="wrap the measure in a bounded transform, keys a0 a1")


def _build_parser() -> _Parser:
    parser = _Parser(prog="crystalstat",
                     description="harmonic-crystal convergence experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    required = _MeasureRule(None)
    white = _MeasureRule({"type": "white", **_merged({}, {}, _TEMPERATURES)})
    # a transformed triangular measure, every key at its default
    clt = _MeasureRule({"type": "transformed", "base": {"type": "triangular"}}, True)
    # name, runner, measure rule (None: no measure flags), gated on E4/E5,
    # the parsed options the runner takes after the run
    for name, fn, measure, gated, options in (
        ("dispersion", _cmd_dispersion, None, False, ()),
        ("critical", _cmd_critical, None, False, ()),
        ("green", _cmd_green, None, False, ("dump_radius",)),
        ("evolve", _cmd_evolve, required, True, ()),
        ("ensemble", _cmd_ensemble, _MeasureRule(None, True), False, ()),
        ("limit", _cmd_limit, required, True, ("dump_density",)),
        ("gibbs", _cmd_gibbs, None, True, ("T1",)),
        ("clt", _cmd_clt, clt, True, ("component",)),
        ("mixing", _cmd_mixing, white, True, ("component",)),
        ("report", _cmd_report, white, True, ()),
    ):
        p = sub.add_parser(name)
        _add_common(p, measure)
        p.set_defaults(fn=fn, options=options, allow_degenerate=False,
                       default_measure=measure and measure.default)
        if gated:
            p.add_argument("--allow-degenerate", action="store_true",
                           help="proceed despite failed E4/E5 reports")
        if name in ("dispersion", "critical", "report"):
            p.add_argument("--grid-L", type=int, dest="grid_L",
                           help="dispersion grid resolution (defaults to L)")
        if name == "green":
            p.add_argument("--eps", type=float, help="critical-set cutoff width")
            p.add_argument("--dump-radius", type=int, default=8, dest="dump_radius",
                           help="dump |x| up to this Chebyshev radius")
        if name == "gibbs":
            p.add_argument("--T1", type=float, default=1.0,
                           help="equilibrium temperature")
        if name in ("clt", "mixing"):
            p.add_argument("--component", type=int, default=0,
                           help="delta test-field component (0..2n-1)")
        if name == "limit":
            p.add_argument("--dump-density", action="store_true", dest="dump_density",
                           help="also serialize the full limit density")
    return parser


def _exit_code(action, stage: _Run | None = None) -> int:
    """action()'s exit code, or that of the first row of _FAILURES whose class
    the failure it raises is.  The row's label and the message go to stderr
    and a condition failure's reports to stdout as JSON; in a stage of
    ``report`` the label follows the stage's name and the reports go to the
    stage's conditions.json."""
    try:
        return action()
    except Exception as exc:
        row = next((row for row in _FAILURES if isinstance(exc, row[0])), None)
        if row is None:
            raise
        if isinstance(exc, ConditionFailure):
            reports = [r.to_jsonable() for r in exc.reports]
            if stage is None:
                print(json.dumps(_plain(reports), sort_keys=True, indent=2))
            else:
                _write_json(stage.outdir / "conditions.json", reports)
        where = f"{stage.eff['command']}: " if stage else ""
        print(f"{where}{row[2]}: {exc}", file=sys.stderr)
        return row[1]


def main(argv=None) -> int:
    parser = _build_parser()

    def command() -> int:
        args = parser.parse_args(argv)
        run = _Run(_effective_config(args, args.command), {}, args.allow_degenerate,
                   args.default_measure)
        return _stage(args.fn, run, {k: getattr(args, k) for k in args.options})

    return _exit_code(command)


if __name__ == "__main__":
    sys.exit(main())
