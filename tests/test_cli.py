"""End-to-end checks of the command-line runner.

Most cases call main() in process for speed; subprocess tests confirm that
the console-script entry point wires exit codes through sys.exit, that a cold
process reaches the assignment solver, and that outputs do not depend on the
BLAS/OpenMP thread count.
"""

import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crystalstat
import crystalstat.cli as cli
import crystalstat.dynamics as dynamics
import crystalstat.fields as fields
import crystalstat.stats as stats
from crystalstat._lattice import NumericalFault, theta_axis
from crystalstat.cli import main
from crystalstat.covariance import covariance_from_density, evolve_density, limit_density
from crystalstat.dynamics import green_cutoff, green_function
from crystalstat.fields import (
    GaussianSampler,
    SpectralDensity,
    density_from_jsonable,
    density_to_jsonable,
    triangular_density,
    white_noise_density,
)
from crystalstat.kernel import (
    InteractionKernel,
    build_nn_kernel,
    check_E123,
    kernel_to_jsonable,
    random_finite_range_kernel,
)
from crystalstat.spectral import (
    DELTA_CONST,
    DELTA_NULL,
    DispersionGrid,
    check_E4_E5,
    dispersion_grid,
)

CSV_HEADER = "theta_1,k,omega_k,grad_norm,D_k,flags"
INTP_MAX = np.iinfo(np.intp).max
STAGES = ("dispersion", "critical", "limit", "mixing")


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("CRYSTALSTAT_SEED", raising=False)


def nn_args(**extra):
    argv = ["--nn", "d=1", "n=1", "m=1"]
    for key, val in extra.items():
        argv += [f"--{key}", str(val)]
    return argv


def counting(calls, fn):
    """fn, appending its name to calls on every call."""
    def wrapped(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapped


def counting_property(monkeypatch, calls, cls, name):
    """Patch the cached property cls.name to append its name to calls on
    every evaluation."""
    prop = cached_property(counting(calls, getattr(cls, name).func))
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def flat_kernel_file(tmp_path):
    """A constant symbol: every branch is flat, so E4 and E5 fail."""
    path = tmp_path / "flat.json"
    kernel = InteractionKernel(1, 2, {(0,): 4.0 * np.eye(2)})
    path.write_text(json.dumps(kernel_to_jsonable(kernel)))
    return path


def test_dispersion_outputs(tmp_path, capsys):
    out = tmp_path / "disp"
    code = main(["dispersion"] + nn_args(L=64) + ["--output", str(out)])
    assert code == 0
    lines = (out / "dispersion.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 64
    reports = json.loads((out / "conditions.json").read_text())
    assert {r["condition"] for r in reports} == {"E1", "E2", "E3", "E4", "E5"}
    assert all(r["verdict"] == "pass" for r in reports)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "dispersion"
    assert manifest["config"]["kernel"] == {"type": "nn", "d": 1, "n": 1, "mass": 1.0}
    assert "omega_max" in capsys.readouterr().out


def read_table(path):
    """(header, rows) of a CSV table, each row a list of its fields."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


# a dispersive branch crossing a shallower one; at delta_cross = 1e-2 the grid
# flags 57 nodes as crossings (Cstar), and the grid flags others Ck
CROSSING = InteractionKernel(1, 2, {(0,): np.diag([3.0, 3.9]), (1,): np.diag([-1.0, -0.5]),
                                    (-1,): np.diag([-1.0, -0.5])})


@pytest.mark.parametrize("kernel, argv, delta_cross, L, flag", [
    (CROSSING, ["--delta-cross", "1e-2"], 1e-2, 256, "Cstar"),
    (build_nn_kernel(2, 2, 0.0), [], 1e-6, 16, "C0|Ck"),
], ids=["crossing", "massless-d2"])
def test_dispersion_table_holds_the_grid_values(tmp_path, kernel, argv, delta_cross, L,
                                                flag):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel_to_jsonable(kernel)))
    out = tmp_path / "disp"
    assert main(["dispersion", "--kernel-file", str(path), "--L", str(L), "--output",
                 str(out)] + argv) == 0
    grid = dispersion_grid(kernel, L, delta_cross)
    grad_norm = np.linalg.norm(grid.branch_gradients, axis=-1)
    d = grid.d
    header, rows = read_table(out / "dispersion.csv")
    assert header == [f"theta_{a + 1}" for a in range(d)] + [
        "k", "omega_k", "grad_norm", "D_k", "flags"]
    keys = list(np.ndindex(grid.branch_values.shape))
    assert len(rows) == len(keys)
    for key, row in zip(keys, rows):
        node, k = key[:-1], key[-1]
        assert [float(s) for s in row[:d]] == [2.0 * np.pi * c / L for c in node]
        assert row[d] == str(k)
        assert [float(s) for s in row[d + 1:d + 4]] == [
            grid.branch_values[key], grad_norm[key], grid.hessian_determinants[key]]
        assert row[d + 4] == "|".join(name for name, flags in (
            ("C0", grid.c0), ("Cstar", grid.crossing), ("Ck", grid.ck)) if flags[node])
    assert flag in {row[-1] for row in rows}


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_green_table_holds_the_green_function(tmp_path, eps):
    L, radius, times = 32, 2, [1.0, 2.5]
    out = tmp_path / "green"
    assert main(["green", "--nn", "d=2", "n=2", "m=1,2", "--L", str(L),
                 "--times"] + [str(t) for t in times] + [
                 "--dump-radius", str(radius), "--eps", str(eps), "--output", str(out)]) == 0
    grid = dispersion_grid(build_nn_kernel(2, 2, [1.0, 2.0]), L)
    cutoff = green_cutoff(grid, eps)
    assert (cutoff is None) == (eps == 0.0)
    header, rows = read_table(out / "green.csv")
    assert header == ["t", "x1", "x2", "row", "col", "value"]
    window = range(-radius, radius + 1)
    keys = [(t, x1, x2, r, c) for t in times for x1 in window for x2 in window
            for r in range(4) for c in range(4)]
    assert [(float(row[0]),) + tuple(int(s) for s in row[1:5]) for row in rows] == keys
    G = {t: green_function(grid, t, cutoff) for t in times}
    for (t, x1, x2, r, c), row in zip(keys, rows):
        assert float(row[5]) == G[t][x1 % L, x2 % L, r, c]


def test_convergence_table_holds_the_covariances(tmp_path):
    L, times = 16, [0.0, 3.5]
    out = tmp_path / "ev"
    assert main(["evolve", "--nn", "d=2", "n=2", "m=1,2", "--L", str(L), "--white",
                 "T0=1", "T1=2", "--times"] + [str(t) for t in times]
                + ["--output", str(out)]) == 0
    grid = dispersion_grid(build_nn_kernel(2, 2, [1.0, 2.0]), L)
    q0 = white_noise_density(1.0, 2.0, 2, 2, L)
    offsets = [(0, 0), (1, 0), (2, 0)]
    limit = covariance_from_density(limit_density(q0, grid), offsets)
    header, rows = read_table(out / "convergence.csv")
    assert header == ["t", "z1", "z2", "i", "j", "k", "l", "q_t", "q_inf", "abs_diff"]
    # entry (a, b) of the 4 x 4 covariance matrix, (i, k) = divmod(a, 2), (j, l) = divmod(b, 2)
    keys = [(t, m, a, b) for t in times for m in range(len(offsets))
            for a in range(4) for b in range(4)]
    assert len(rows) == len(keys)
    current = {t: covariance_from_density(evolve_density(q0, grid, t), offsets)
               for t in times}
    for (t, m, a, b), row in zip(keys, rows):
        (i, k), (j, l) = divmod(a, 2), divmod(b, 2)
        assert float(row[0]) == t
        assert row[1:7] == [str(c) for c in offsets[m] + (i, j, k, l)]
        qt, qinf = current[t][m, a, b], limit[m, a, b]
        assert [float(s) for s in row[7:]] == [qt, qinf, abs(qt - qinf)]


def whole_column_table(header, columns) -> str:
    """The text of a table whose every column was built whole, the header
    line first, as the writer made it before it formatted one block of rows
    at a time."""
    return "".join(",".join(row) + "\n" for row in [header] + list(zip(*columns)))


@pytest.mark.parametrize("block_rows", [None, 1000])
def test_dispersion_table_blocks_give_the_whole_column_bytes(tmp_path, monkeypatch,
                                                             block_rows):
    # d=2 n=3 L=38 gives 4332 rows: more than one block of 4096, and not a
    # multiple of it (the 4107 rows of L=37 are out of reach: a dispersion
    # grid needs an even L); three determinants become -0.0, one in each
    # block and the last row, which must print as -0
    if block_rows is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    grids = []

    def grid_with_signed_zeros(*args):
        grid = dispersion_grid(*args)
        D = grid.hessian_determinants.copy()
        D.reshape(-1)[[0, 4096, 4331]] = -0.0
        grid.__dict__["hessian_determinants"] = D
        grids.append(grid)
        return grid

    monkeypatch.setattr(cli, "dispersion_grid", grid_with_signed_zeros)
    out = tmp_path / "disp"
    assert main(["dispersion", "--nn", "d=2", "n=3", "m=1,2,3", "--L", "38",
                 "--output", str(out)]) == 0
    grid, = grids
    W, D = grid.branch_values, grid.hessian_determinants
    assert W.size == 4332 and "-0" in ["%.17g" % v for v in D.reshape(-1)[[0, 4096, 4331]]]

    index = np.indices(W.shape).reshape(W.ndim, -1)
    theta = g17(theta_axis(grid.L))
    node_flags = [("C0", grid.c0), ("Cstar", grid.crossing), ("Ck", grid.ck)]
    columns = ([[theta[i] for i in index[a]] for a in range(grid.d)]
               + [[str(k) for k in index[-1]], g17(W),
                  g17(np.linalg.norm(grid.branch_gradients, axis=-1)), g17(D),
                  ["|".join(name for name, flags in node_flags if flags[tuple(node)])
                   for node in index[:-1].T]])
    header = ["theta_1", "theta_2", "k", "omega_k", "grad_norm", "D_k", "flags"]
    assert (out / "dispersion.csv").read_text() == whole_column_table(header, columns)


def g17(values) -> list:
    """The %.17g strings of the entries of values, in C order."""
    return ["%.17g" % v for v in np.ravel(values)]


@pytest.mark.parametrize("block_rows", [None, 1000])
def test_green_table_blocks_give_the_whole_column_bytes(tmp_path, monkeypatch, block_rows):
    # d=2 n=2 and the default radius 8 give 2 * 17^2 * 16 = 9248 rows: three
    # blocks of 4096, ten of 1000, the last one short either way
    if block_rows is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    L, radius, times = 64, 8, [5.0, 10.0]
    out = tmp_path / "green"
    assert main(["green", "--nn", "d=2", "n=2", "m=1,2", "--L", str(L), "--times", "5", "10",
                 "--output", str(out)]) == 0
    grid = dispersion_grid(build_nn_kernel(2, 2, [1.0, 2.0]), L)
    wrap = np.arange(-radius, radius + 1) % L
    window = np.stack([green_function(grid, t, None)[np.ix_(wrap, wrap)] for t in times])
    assert window.size == 9248
    index, stamps = np.indices(window.shape).reshape(window.ndim, -1), g17(times)
    columns = ([[stamps[i] for i in index[0]]]
               + [[str(i - radius) for i in index[a]] for a in (1, 2)]
               + [[str(i) for i in index[a]] for a in (3, 4)] + [g17(window)])
    header = ["t", "x1", "x2", "row", "col", "value"]
    assert (out / "green.csv").read_text() == whole_column_table(header, columns)


@pytest.mark.parametrize("block_rows", [None, 50])
def test_convergence_table_blocks_give_the_whole_column_bytes(tmp_path, monkeypatch,
                                                              block_rows):
    # d=2 n=3 and two times give 2 * 3 * 36 = 216 rows: one block of 4096, or
    # four of 50 and a short one
    if block_rows is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    L, times, offsets = 32, [0.0, 5.0], [(0, 0), (1, 0), (2, 0)]
    out = tmp_path / "ev"
    assert main(["evolve", "--nn", "d=2", "n=3", "m=0,1,2", "--L", str(L), "--white",
                 "T0=1", "T1=2", "--times", "0", "5", "--output", str(out)]) == 0
    grid = dispersion_grid(build_nn_kernel(2, 3, [0.0, 1.0, 2.0]), L)
    q0 = white_noise_density(1.0, 2.0, 3, 2, L)
    limit = covariance_from_density(limit_density(q0, grid), offsets)
    current = np.stack([covariance_from_density(evolve_density(q0, grid, t), offsets)
                        for t in times])
    assert current.size == 216
    # entry (a, b) of the 6 x 6 covariance matrix, (i, k) = divmod(a, 3), (j, l) = divmod(b, 3)
    stamp, m, a, b = np.indices(current.shape).reshape(4, -1)
    stamps = g17(times)
    columns = ([[stamps[s] for s in stamp]]
               + [[str(offsets[z][axis]) for z in m] for axis in (0, 1)]
               + [[str(v) for v in values] for values in (a // 3, b // 3, a % 3, b % 3)]
               + [g17(current), g17(np.broadcast_to(limit, current.shape)),
                  g17(np.abs(current - limit))])
    header = ["t", "z1", "z2", "i", "j", "k", "l", "q_t", "q_inf", "abs_diff"]
    assert (out / "convergence.csv").read_text() == whole_column_table(header, columns)


def readme_command_lines() -> list:
    """The argv of every ``crystalstat`` line of the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line.split()[1:] for line in text.splitlines() if line.startswith("crystalstat ")]


def with_output(argv, out) -> list:
    """argv with its --output directory replaced by out."""
    at = argv.index("--output")
    return argv[:at] + ["--output", str(out)] + argv[at + 2:]


MEASURE_BUILDERS = ("white_noise_density", "triangular_density", "density_from_jsonable")


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_lines_build_the_measure_at_most_once(tmp_path, monkeypatch, argv):
    calls = []
    for name in MEASURE_BUILDERS:
        monkeypatch.setattr(cli, name, counting(calls, getattr(cli, name)))
    assert main(with_output(argv, tmp_path / "out")) in (cli.EXIT_OK, cli.EXIT_GATE)
    assert all(calls.count(name) <= 1 for name in MEASURE_BUILDERS), calls


def test_report_drops_the_initial_density_once_the_limit_is_built(tmp_path, monkeypatch):
    argv = next(argv for argv in readme_command_lines() if argv[0] == "report")
    refs, dead_at_mixing = [], []
    mixing = cli._cmd_mixing

    def white(*args):
        density = fields.white_noise_density(*args)
        refs.append(weakref.ref(density))
        return density

    def watched_mixing(run, **options):
        dead_at_mixing.append(refs[0]() is None)
        return mixing(run, **options)

    monkeypatch.setattr(cli, "white_noise_density", white)
    monkeypatch.setattr(cli, "_cmd_mixing", watched_mixing)
    assert main(with_output(argv, tmp_path / "rep")) == cli.EXIT_OK
    assert len(refs) == 1 and dead_at_mixing == [True]


# values whose %.17g strings are easy to get wrong: signed zeros (equal as
# floats), infinities, NaNs with other sign and payload bits, subnormals
_AWKWARD = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 0.1,
            float(np.uint64(0xFFF8000000000001).view(np.float64))]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.one_of(st.sampled_from(_AWKWARD), st.floats()), min_size=1,
                     max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=48),
       view=st.sampled_from(["flat", "strided", "reversed", "transposed", "float32",
                             "list", "scalar"]))
def test_format17_formats_each_entry_of_a_flattened_array_with_17g(pool, picks, view):
    # heavy repeats: every entry is one of at most six values
    a = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
    if view == "strided":
        a = a[::3]
    elif view == "reversed":
        a = a[::-1]
    elif view == "transposed":
        a = a[:a.size - a.size % 4].reshape(-1, 4).T
    elif view == "float32":
        with np.errstate(over="ignore"):
            a = a.astype(np.float32)
    elif view == "list":
        a = a.tolist()
    elif view == "scalar":
        a = np.asarray(pool[0])
    assert cli._format17(flat64(a)) == ["%.17g" % v for v in np.ravel(a).tolist()]


def test_format17_keeps_the_sign_of_zero():
    assert cli._format17(flat64([[0.0, -0.0], [-0.0, 0.0]])) == ["0", "-0", "-0", "0"]
    assert cli._format17(flat64(-0.0)) == ["-0"]


def flat64(a) -> np.ndarray:
    """The entries of a float array, list or scalar as a flat float64 array,
    in C order: the form in which the CLI formats its label arrays."""
    return np.ravel(np.asarray(a, dtype=np.float64))


def bit_patterns(values) -> list:
    """The float64 bit pattern of each entry of values, in C order."""
    return np.ravel(np.asarray(values, dtype=np.float64)).view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(pool=st.lists(st.one_of(st.sampled_from(_AWKWARD), st.floats()), min_size=1,
                     max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=64), columns=st.integers(1, 3))
def test_bit_codes_are_the_patterns_and_inverse_of_np_unique(pool, picks, columns):
    # heavy repeats and zeros of both signs, as 1-D or 2-D arrays
    a = np.array([0.0, -0.0] + [pool[i % len(pool)] for i in picks])
    a = a[:a.size - a.size % columns].reshape(-1, columns)
    distinct, codes = cli._bit_codes(a)
    patterns, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    assert distinct.dtype == np.float64 and distinct.view(np.uint64).tolist() == patterns.tolist()
    assert codes.dtype == np.int32 and codes.tolist() == np.ravel(inverse).tolist()


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_write_csv_formats_each_bit_pattern_once_per_table(tmp_path, monkeypatch,
                                                           block_rows):
    # 5 x 821 = 4105 rows: 586 blocks of 7 and a short one of 3, or one block
    # of 4096 and a short one of 9.  2.5 is read in the first and the last
    # row only, so its string must outlive every block between them; each
    # value of `pairs` is read in two adjacent rows, mostly of one block
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    formatted, format17 = [], cli._format17

    def counted(values):
        formatted.extend(bit_patterns(values))
        return format17(values)

    monkeypatch.setattr(cli, "_format17", counted)
    rng = np.random.default_rng(34)
    shape = (5, 821)
    signed = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, math.inf, math.nan], size=shape)
    signed[0, 0] = signed[-1, -1] = 2.5
    signed[0, 1], signed[-1, -2] = -0.0, 0.0
    row = np.round(rng.standard_normal(821), 1)  # about 50 distinct, read in every row
    pairs = (np.arange(4105) // 2 * 0.25).reshape(shape)
    labels = ["a", "b", "c", "d", "e"]
    cli._write_csv(tmp_path / "t.csv", shape, [("i", labels, cli._axis(shape, 0)),
                                              ("signed", signed), ("row", row),
                                              ("pairs", pairs)])
    distinct = [set(bit_patterns(values)) for values in (signed, row, pairs)]
    assert len(distinct[0]) == 8 and {0, 1 << 63} <= distinct[0]
    assert sorted(formatted) == sorted(sum(map(list, distinct), []))
    columns = [[labels[i] for i in np.indices(shape)[0].ravel()], g17(signed),
               g17(np.broadcast_to(row, shape)), g17(pairs)]
    assert (tmp_path / "t.csv").read_text() == whole_column_table(
        ["i", "signed", "row", "pairs"], columns)


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_float_column_holds_only_the_strings_read_across_a_block_boundary(monkeypatch,
                                                                          block_rows):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    values = np.concatenate([np.arange(4105) // 3 * 0.5, [0.0, -0.0, 7.0]])
    values[[0, 4000]] = values[-1] = -0.0
    column = cli._FloatColumn(values, values.shape)
    blocks = [values[start:start + block_rows] for start in range(0, values.size, block_rows)]
    first, last = {}, {}
    for b, block in enumerate(blocks):
        for bits in bit_patterns(block):
            first.setdefault(bits, b)
            last[bits] = b
    first, last = (np.array([blocks_of[bits] for bits in first]) for blocks_of in (first, last))
    for b, block in enumerate(blocks):
        rows = slice(b * block_rows, b * block_rows + block.size)
        assert column.fields(b, rows) == g17(block)
        # the patterns read both in or before block b and after it
        assert sum(s is not None for s in column.strings) == np.sum((first <= b) & (last > b))


def test_format17_gives_the_strings_of_one_value_at_a_time():
    # random bits over the whole float64 range, random subnormals, and the
    # ends of the normal and subnormal ranges with both signs
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 1 << 64, size=50_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 1 << 52, size=5_000, dtype=np.uint64)
    finfo = np.finfo(np.float64)
    ends = [0.0, finfo.max, finfo.tiny, finfo.smallest_subnormal,
            finfo.tiny - finfo.smallest_subnormal, 1.0, 0.1]
    values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64),
                             np.array(ends), -np.array(ends)])
    values = values[np.isfinite(values)]
    assert 55_000 > values.size > 50_000
    assert cli._format17(values) == ["%.17g" % v for v in values.tolist()]
    assert cli._format17(values[:0]) == []
    assert cli._format17(np.array([-0.0, 0.0])) == ["-0", "0"]


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["dispersion"] + nn_args(L=64) + ["--output", str(out)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "dispersion.csv").read_bytes() == (b / "dispersion.csv").read_bytes()
    assert (a / "conditions.json").read_bytes() == (b / "conditions.json").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config"].pop("output") != mb["config"].pop("output")
    assert ma == mb


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    code = main(["dispersion"] + nn_args(L=32) + ["--bogus"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_kv_token_is_usage_error(capsys):
    code = main(["dispersion", "--nn", "mass=1", "--L", "32"])
    assert code == 1
    assert "does not accept" in capsys.readouterr().err


def test_unknown_config_key_fails_closed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 32, "bogus": 1}))
    code = main(["dispersion"] + nn_args() + ["--config", str(cfg)])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_kernel_spelling(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({
        "kernel": {"type": "nn", "d": 1, "n": 1, "mass": 1.0},
        "L": 32, "output": str(tmp_path / "out"),
    }))
    assert main(["dispersion", "--config", str(ok)]) == 0
    # the flag shorthand m= does not leak into config files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kernel": {"type": "nn", "d": 1, "m": 1.0}, "L": 32}))
    code = main(["dispersion", "--config", str(bad)])
    assert code == 1
    assert "unknown kernel keys" in capsys.readouterr().err


def test_condition_failure_exits_2_with_report(tmp_path, capsys):
    path = tmp_path / "bad_kernel.json"
    path.write_text(json.dumps(kernel_to_jsonable(InteractionKernel(1, 1, {(0,): [[-1.0]]}))))
    out = tmp_path / "out"
    code = main(["dispersion", "--kernel-file", str(path), "--L", "32",
                 "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "condition failure: E3" in captured.err
    reports = json.loads(captured.out)
    failing = [r for r in reports if r["verdict"] == "fail"]
    assert [r["condition"] for r in failing] == ["E3"]


def test_dump_radius_must_fit(tmp_path, capsys):
    code = main(["green"] + nn_args(L=16) + ["--dump-radius", "8",
                 "--output", str(tmp_path / "g")])
    assert code == 1
    assert "dump-radius" in capsys.readouterr().err


def seed_in_manifest(out):
    return json.loads((out / "manifest.json").read_text())["config"]["seed"]


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"type": "nn", "d": 1, "n": 1, "mass": 1.0},
        "L": 32, "seed": 7,
    }))
    base = ["dispersion", "--config", str(cfg), "--output"]

    out = tmp_path / "from_config"
    assert main(base + [str(out)]) == 0
    assert seed_in_manifest(out) == 7

    monkeypatch.setenv("CRYSTALSTAT_SEED", "9")
    out = tmp_path / "from_env"
    assert main(base + [str(out)]) == 0
    assert seed_in_manifest(out) == 9

    out = tmp_path / "from_flag"
    assert main(base + [str(out), "--seed", "11"]) == 0
    assert seed_in_manifest(out) == 11


def test_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRYSTALSTAT_SEED", "abc")
    code = main(["dispersion"] + nn_args(L=32) + ["--output", str(tmp_path / "o")])
    assert code == 1
    assert "CRYSTALSTAT_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env", "config", "random", "kernel spec"])
def test_negative_seed_is_usage_error_before_output(tmp_path, monkeypatch, capsys, source):
    argv = ["clt"] + nn_args(L=32) + ["--ensemble", "1000", "--t", "2"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("CRYSTALSTAT_SEED", "-1")
    elif source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    elif source == "random":
        argv = ["dispersion", "--random", "d=1", "n=1", "seed=-1", "--L", "32"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": {"type": "random", "d": 1, "n": 1, "seed": -1},
                                   "L": 32}))
        argv = ["dispersion", "--config", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"seed": 2.5}, "config seed must be an integer, got 2.5"),
    ({"seed": True}, "config seed must be an integer, got True"),
    ({"ensemble": 1000.5}, "config ensemble must be an integer, got 1000.5"),
    ({"L": 32.5}, "config L must be an integer, got 32.5"),
    ({"grid_L": 16.0}, "config grid_L must be an integer, got 16.0"),
    ({"kernel": {"type": "random", "d": 1, "n": 1, "seed": 1.5}},
     "config kernel seed must be an integer, got 1.5"),
    ({"times": 5}, "config times must be a list of numbers, got 5"),
    ({"times": "12"}, "config times must be a list of numbers, got '12'"),
    ({"times": []}, "config times must not be empty"),
    ({"kernel": {"type": "nn", "d": 1.7, "n": 1}}, "config kernel d must be an integer, got 1.7"),
    ({"kernel": {"type": "nn", "d": 1, "n": True}},
     "config kernel n must be an integer, got True"),
    ({"kernel": {"type": "random", "d": 1, "n": 1, "range": 2.0}},
     "config kernel range must be an integer, got 2.0"),
    ({"measure": {"type": "triangular", "nu0": 2.9}},
     "config measure nu0 must be an integer, got 2.9"),
    ({"measure": {"type": "transformed", "base": {"type": "triangular", "nu0": "2"}}},
     "config measure nu0 must be an integer, got '2'"),
    ({"thresholds": {"delta_cross": True}},
     "config threshold delta_cross must be a number, got True"),
    ({"thresholds": {"eps": "1e-3"}}, "config threshold eps must be a number, got '1e-3'"),
    ({"kernel": {"type": "nn", "d": 1, "n": 1, "mass": True}},
     "config kernel mass must be a number or a list of numbers, got True"),
    ({"measure": {"type": "white", "T0": "2", "T1": True}},
     "config measure T0 must be a number, got '2'"),
    ({"output": 7}, "config output must be a string, got 7"),
    ({"L": 10 ** 30}, f"L^1 must be at most {INTP_MAX} lattice nodes, got L={10 ** 30}"),
])
def test_config_numbers_are_checked_not_truncated(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"type": "nn", "d": 1, "n": 1, "mass": 1.0},
                               "L": 32, "measure": {"type": "triangular", "nu0": 2},
                               **doc}))
    out = tmp_path / "o"
    assert main(["clt", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def table_keys():
    """(section, type, name, key) of every value key of the config table."""
    for name, key in cli._TABLE.items():
        if isinstance(key, cli._Key):
            yield None, None, name, key
    for name, key in cli._TABLE["thresholds"].items():
        yield "thresholds", None, name, key
    for section in ("kernel", "measure"):
        for kind, keys in cli._TABLE[section].items():
            for name, key in keys.items():
                if key.kind != "measure":
                    yield section, kind, name, key


def bad_values(key):
    """(config value, flag text) pairs that the key must refuse."""
    if key.kind == "path":
        return [(True, None), (3, None)]
    bad = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (True, "true"),
           ("abc", "abc")]
    if key.kind == "integer":
        bad.append((1.5, "1.5"))
    if key.constraint in ("positive", "nonnegative"):
        bad.append((-1, "-1") if key.kind == "integer" else (-0.5, "-0.5"))
    return bad


@st.composite
def table_key_and_bad_value(draw):
    section, kind, name, key = draw(st.sampled_from(list(table_keys())))
    return section, kind, name, draw(st.sampled_from(bad_values(key)))


def bad_flag_argv(section, kind, name, text):
    """A command line that gives the bad value by its flag."""
    kernel = ["--nn", "d=1", "n=1", "m=1"]
    measure = ["--white", "T0=1", "T1=1"]
    if section is None or section == "thresholds":
        flag = [f"--{name.replace('_', '-')}={text}"]
    elif section == "kernel":
        kernel, flag = [f"--{kind}", f"{cli._FLAG_NAMES.get(name, name)}={text}"], []
    elif kind == "transformed":
        flag = ["--transform", f"{name}={text}"]
    else:
        measure, flag = [f"--{kind}", f"{name}={text}"], []
    command = {"grid_L": "critical", "eps": "green"}.get(name, "limit")
    if command != "limit":
        measure = []
    elif kind == "transformed":
        command = "ensemble"  # --transform is a flag of the sampling commands only
    return [command] + kernel + ["--L", "16"] + measure + flag


def bad_config(section, kind, name, value):
    """A config that gives the bad value at the key's place."""
    doc = {"kernel": {"type": "nn", "d": 1, "n": 1, "mass": 1.0}, "L": 16,
           "measure": {"type": "white"}}
    if section is None:
        doc[name] = [value] if name == "times" else value
    elif section == "thresholds":
        doc["thresholds"] = {name: value}
    elif kind == "transformed":
        doc["measure"] = {"type": kind, "base": {"type": "white"}, name: value}
    else:
        doc[section] = {"type": kind, name: value}
    return doc


@settings(max_examples=80, deadline=None)
@given(case=table_key_and_bad_value())
def test_every_table_key_refuses_bad_values_before_output(case):
    section, kind, name, (value, text) = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if text is not None:
            assert main(bad_flag_argv(section, kind, name, text) + ["--output", str(out)]) == 1
            assert not out.exists()
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(bad_config(section, kind, name, value)))
        assert main(["limit", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()


def test_config_kernel_integers_reach_the_kernel(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"type": "random", "d": 2, "n": 2, "range": 1,
                                          "seed": 3}, "L": 16}))
    out = tmp_path / "o"
    assert main(["critical", "--config", str(cfg), "--output", str(out)]) == 0
    by_flags = tmp_path / "f"
    assert main(["critical", "--random", "d=2", "n=2", "range=1", "seed=3", "--L", "16",
                 "--output", str(by_flags)]) == 0
    assert (out / "critical.json").read_bytes() == (by_flags / "critical.json").read_bytes()


@pytest.mark.parametrize("command", ["ensemble", "clt"])
def test_transform_without_measure_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command] + nn_args(L=32) + ["--transform", "a0=2",
                                             "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: --transform needs a measure "
        "(--triangular/--white/--measure-file or config)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["clt", "ensemble"])
def test_bad_transform_token_is_usage_error_before_output(tmp_path, capsys, command):
    # with or without a measure, the tokens are parsed before anything runs
    for measure in ([], ["--triangular", "nu0=2"]):
        out = tmp_path / f"o{len(measure)}"
        assert main([command] + nn_args(L=32) + measure + [
            "--transform", "bogus", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: --transform expects key=value tokens, got 'bogus'\n")
        assert not out.exists()


@pytest.mark.parametrize("tokens, shown", [
    (["a0=inf"], "a0=inf a1=1.0"),
    (["a1=nan"], "a0=1.0 a1=nan"),
    (["a0=0"], "a0=0.0 a1=1.0"),
    (["a0=2", "a1=-1"], "a0=2.0 a1=-1.0"),
])
@pytest.mark.parametrize("command", ["ensemble", "clt"])
def test_transform_amplitudes_must_be_finite_and_positive(tmp_path, capsys, command,
                                                          tokens, shown):
    out = tmp_path / "o"
    assert main([command] + nn_args(L=32) + ["--triangular", "nu0=2", "--transform"]
                + tokens + ["--ensemble", "1000", "--t", "2", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"usage error: transform amplitudes must be finite and positive, got {shown}\n")
    assert not out.exists()


@pytest.mark.parametrize("a0, message", [
    (-1.0, "transform amplitudes must be finite and positive, got a0=-1.0 a1=1.0"),
    ("wide", "config measure a0 must be a number, got 'wide'"),
])
def test_config_transform_amplitudes_are_checked(tmp_path, capsys, a0, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": {
        "type": "transformed", "base": {"type": "triangular", "nu0": 2}, "a0": a0}}))
    out = tmp_path / "o"
    assert main(["clt"] + nn_args(L=32) + ["--config", str(cfg), "--ensemble", "1000",
                                           "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


TRANSFORMED_WHITE = {"type": "transformed", "base": {"type": "white", "T0": 1.0, "T1": 1.0},
                     "a0": 0.5, "a1": 0.5}


def test_transform_flag_over_transformed_config_measure_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": TRANSFORMED_WHITE}))
    out = tmp_path / "o"
    assert main(["ensemble"] + nn_args(L=16) + ["--config", str(cfg), "--transform", "a0=3",
                                                "--ensemble", "200", "--t", "1",
                                                "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: --transform cannot wrap the config's transformed measure; "
        "set its a0 and a1 instead\n")
    assert not out.exists()


def test_config_transform_of_a_transform_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": {"type": "transformed", "base": TRANSFORMED_WHITE,
                                           "a0": 3.0}}))
    out = tmp_path / "o"
    assert main(["ensemble"] + nn_args(L=16) + ["--config", str(cfg), "--ensemble", "200",
                                                "--t", "1", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: a transformed measure's base cannot itself be transformed\n")
    assert not out.exists()


def test_ensemble_gates_and_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["ensemble"] + nn_args(L=32) + [
            "--ensemble", "300", "--t", "5", "--white", "T0=1", "T1=1",
            "--seed", "4", "--output", str(out)])
        assert code == 0
        outs.append(out)
    report = json.loads((outs[0] / "ensemble.json").read_text())
    assert report["count"] == 300
    assert report["seed"] == 4
    assert report["all_pass"] is True
    assert len(report["offsets"]) == 3
    a, b = outs
    assert (a / "ensemble.json").read_bytes() == (b / "ensemble.json").read_bytes()


def test_gibbs_small_ensemble_fails_gate(tmp_path, capsys):
    out = tmp_path / "gib"
    code = main(["gibbs"] + nn_args(L=64) + [
        "--ensemble", "2000", "--t", "30", "--seed", "3", "--output", str(out)])
    assert code == 3
    assert "acceptance gate failed" in capsys.readouterr().err
    report = json.loads((out / "gibbs.json").read_text())
    assert report["all_pass"] is False
    assert (out / "manifest.json").exists()


def test_clt_quick_run_passes(tmp_path, capsys):
    out = tmp_path / "clt"
    code = main(["clt"] + nn_args(L=64) + [
        "--ensemble", "2000", "--t", "30", "--seed", "0", "--output", str(out)])
    assert code == 0
    report = json.loads((out / "clt.json").read_text())
    assert report["all_pass"] is True
    assert report["gates"]["platykurtic_start"] is True
    assert report["initial_moments"]["z_kurtosis"] < -4
    assert "sweep: True" in capsys.readouterr().out


def test_limit_dump_density_roundtrips(tmp_path):
    out = tmp_path / "lim"
    code = main(["limit"] + nn_args(L=32) + [
        "--white", "T0=1", "T1=1", "--dump-density", "--output", str(out)])
    assert code == 0
    report = json.loads((out / "limit.json").read_text())
    assert report["excluded_fraction"] == 0.0
    assert report["es"]["verdict"] == "pass"
    dens = density_from_jsonable(json.loads((out / "density.json").read_text()))
    assert dens.L == 32 and dens.d == 1 and dens.n == 1


def test_evolve_convergence_table(tmp_path):
    out = tmp_path / "ev"
    code = main(["evolve"] + nn_args(L=32) + [
        "--white", "T0=1", "T1=1", "--times", "0", "5", "--output", str(out)])
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "t,z1,i,j,k,l,q_t,q_inf,abs_diff"
    # 2 times x 3 offsets x 4 matrix entries
    assert len(lines) == 1 + 2 * 3 * 4


def test_green_outputs(tmp_path):
    out = tmp_path / "green"
    code = main(["green"] + nn_args(L=256) + [
        "--times", "5", "10", "20", "40", "--dump-radius", "2",
        "--output", str(out)])
    assert code == 0
    lines = (out / "green.csv").read_text().splitlines()
    assert lines[0] == "t,x1,row,col,value"
    assert len(lines) == 1 + 4 * 5 * 4
    fit = json.loads((out / "green_fit.json").read_text())
    assert fit["fit"]["slope"] < -0.2
    assert len(fit["sup_abs"]) == 4


def test_report_runs_all_stages(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["report"] + nn_args(L=32) + ["--output", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"exit": 0, "stages": {"critical": 0, "dispersion": 0,
                                            "limit": 0, "mixing": 0}}
    for stage in summary["stages"]:
        assert (out / stage / "manifest.json").exists()
    assert "stages" in capsys.readouterr().out


def test_report_checks_E123_once_across_resolutions(tmp_path, monkeypatch):
    calls = []

    def counted(kernel, *rest):
        calls.append(kernel)
        return check_E123(kernel, *rest)

    monkeypatch.setattr(cli, "check_E123", counted)
    out = tmp_path / "rep"
    assert main(["report"] + nn_args(L=16) + ["--grid-L", "32", "--output", str(out)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("L, builds", [(32, 1), (16, 2)])
def test_scan_grid_symbol_is_built_once(tmp_path, monkeypatch, L, builds):
    # at d=3 the E3 scan grid is 32^3; a run at that resolution builds its
    # symbol once for E1-E3 and the dispersion grid, another run twice
    calls = []
    symbol_grid = InteractionKernel.symbol_grid
    monkeypatch.setattr(InteractionKernel, "symbol_grid",
                        lambda self, L: calls.append(L) or symbol_grid(self, L))
    out = tmp_path / "rep"
    argv = ["--nn", "d=3", "n=1", "m=1", "--L", str(L)]
    assert main(["report"] + argv + ["--output", str(out)]) == 0
    assert len(calls) == builds
    kernel = build_nn_kernel(3, 1, 1.0)
    reports = json.loads((out / "dispersion" / "conditions.json").read_text())
    assert reports[:3] == json.loads(json.dumps([r.to_jsonable() for r in check_E123(kernel)]))


@pytest.mark.parametrize("command", ["limit", "report"])
def test_zero_density_is_trivially_summable(tmp_path, command):
    # a massless kernel has C_0 nodes, so ES sums the weighted density, all zero
    out = tmp_path / command
    argv = ["--nn", "d=3", "n=1", "m=0", "--L", "16", "--white", "T0=0", "T1=0"]
    assert main([command] + argv + ["--output", str(out)]) == 0
    limit = json.loads(((out / "limit" if command == "report" else out)
                        / "limit.json").read_text())
    assert limit["es"]["verdict"] == "pass"
    assert limit["es"]["witnesses"][0]["sums"] == [0.0, 0.0, 0.0]


def report_stages(out):
    return json.loads((out / "summary.json").read_text())["stages"]


def test_report_kernel_failing_E3_fails_every_stage(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(kernel_to_jsonable(InteractionKernel(1, 1, {(0,): [[-1.0]]}))))
    out = tmp_path / "rep"
    code = main(["report", "--kernel-file", str(path), "--L", "32", "--output", str(out)])
    assert code == 2
    assert report_stages(out) == {stage: 2 for stage in STAGES}
    for stage in STAGES:
        assert [f.name for f in (out / stage).iterdir()] == ["conditions.json"]


#: a random kernel whose symbol passes E3 on the d=2 scan grid (128^2) but
#: dips to -5.210e-03 between its nodes, where the 96^2 grid finds it
NEGATIVE_BETWEEN_SCAN_NODES = ["--random", "d=2", "n=1", "range=2", "seed=3", "--L", "96"]


def test_report_kernel_failing_E3_on_its_grid_fails_every_stage(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["report"] + NEGATIVE_BETWEEN_SCAN_NODES + ["--output", str(out)])
    assert code == 2
    assert report_stages(out) == {stage: 2 for stage in STAGES}
    for stage in STAGES:
        assert [f.name for f in (out / stage).iterdir()] == ["conditions.json"]
        [e3] = json.loads((out / stage / "conditions.json").read_text())
        assert (e3["condition"], e3["verdict"]) == ("E3", "fail")
    assert capsys.readouterr().err == "".join(f"{stage}: condition failure: E3\n"
                                              for stage in STAGES)


@pytest.mark.parametrize("argv", [["dispersion"], ["evolve", "--white", "T0=1", "T1=1"]],
                         ids=["dispersion", "evolve"])
def test_E3_failing_on_the_run_grid_is_condition_failure(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv + NEGATIVE_BETWEEN_SCAN_NODES + ["--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "condition failure: E3\n"
    [e3] = json.loads(captured.out)
    assert (e3["condition"], e3["verdict"]) == ("E3", "fail")
    assert f"{e3['witnesses'][0]['value']:.3e}" == "-5.210e-03"
    assert e3["note"] == "min symbol eigenvalue over 96^2 grid"
    assert not out.exists()


@pytest.mark.parametrize("extra, spectral_code", [([], 2), (["--allow-degenerate"], 0)])
def test_report_flat_kernel(tmp_path, extra, spectral_code):
    out = tmp_path / "rep"
    code = main(["report", "--kernel-file", str(flat_kernel_file(tmp_path)), "--L", "32",
                 "--output", str(out)] + extra)
    assert code == spectral_code
    assert report_stages(out) == {"dispersion": 0, "critical": 0,
                                  "limit": spectral_code, "mixing": spectral_code}


def test_report_transform_wraps_default_white_noise(tmp_path, capsys):
    # report takes no --transform; a config can still give it a transformed measure
    measure = {"type": "transformed", "base": {"type": "white"}, "a0": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": measure}))
    out = tmp_path / "rep"
    code = main(["report"] + nn_args(L=32) + ["--config", str(cfg), "--output", str(out)])
    assert code == 1
    assert report_stages(out) == {"dispersion": 0, "critical": 0, "limit": 1, "mixing": 1}
    for stage in ("dispersion", "critical"):
        manifest = json.loads((out / stage / "manifest.json").read_text())
        assert manifest["command"] == stage
        assert manifest["config"]["measure"] == measure
        assert manifest["config"]["output"] == str(out / stage)
    err = capsys.readouterr().err
    assert "limit: usage error: limit needs a Gaussian measure" in err
    assert "mixing: usage error: mixing needs a Gaussian measure" in err


def test_report_records_value_error_per_stage(tmp_path, capsys):
    doc = density_to_jsonable(white_noise_density(1.0, 1.0, 1, 1, 32))
    doc["matrix_re"][3][0][1] = 0.5  # breaks Hermitian symmetry at one node
    path = tmp_path / "nonhermitian.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rep"
    code = main(["report"] + nn_args(L=32) + ["--measure-file", str(path),
                                              "--output", str(out)])
    assert code == 1
    assert json.loads((out / "summary.json").read_text()) == {
        "exit": 1, "stages": {"dispersion": 0, "critical": 0, "limit": 1, "mixing": 1}}
    assert (out / "manifest.json").exists()
    err = capsys.readouterr().err
    assert "limit: usage error: density is not Hermitian" in err
    assert "mixing: usage error: density is not Hermitian" in err


# ------------------------------------------------- report's dispersion helper

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Tagged:
    """A text stream that appends each write to log as (tag, text), so that
    two streams sharing one log keep the order of their writes."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def write(self, text):
        self.log.append((self.tag, text))
        return len(text)

    def flush(self):
        pass


def report_outputs(monkeypatch, argv, out):
    """(exit code, every output file by relative path, stdout and stderr
    writes in order, helpers forked) of report run in process into out."""
    shutil.rmtree(out, ignore_errors=True)
    log, forks, helper = [], [], cli.Helper
    with monkeypatch.context() as patch, redirect_stdout(Tagged(log, "out")), \
            redirect_stderr(Tagged(log, "err")):
        patch.setattr(cli, "Helper", lambda *args: forks.append(args) or helper(*args))
        code = main(["report"] + argv + ["--output", str(out)])
    assert_no_child_left()
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
             if f.is_file()}
    return code, files, log, len(forks)


def report_case(tmp_path, case) -> list:
    """report's argv, without --output, for each run whose bytes the helper keeps."""
    if case == "readme":
        argv = next(argv for argv in readme_command_lines() if argv[0] == "report")
        at = argv.index("--output")
        return argv[1:at] + argv[at + 2:]
    if case == "grid-L":
        return nn_args(L=16) + ["--grid-L", "32"]
    if case == "flat":
        return ["--kernel-file", str(flat_kernel_file(tmp_path)), "--L", "32"]
    if case == "transformed":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"type": "transformed", "base": {"type": "white"},
                                               "a0": 2}}))
        return nn_args(L=32) + ["--config", str(cfg)]
    return NEGATIVE_BETWEEN_SCAN_NODES


@pytest.mark.parametrize("case, stages, forks", [
    ("readme", (0, 0, 0, 0), 1),
    ("grid-L", (0, 0, 0, 0), 1),
    ("flat", (0, 0, 2, 2), 1),
    ("transformed", (0, 0, 1, 1), 1),
    # E3 fails before the table exists: no helper
    ("E3-between-nodes", (2, 2, 2, 2), 0),
])
def test_report_helper_keeps_every_byte(tmp_path, monkeypatch, another_thread, case, stages,
                                        forks):
    # the same run with the dispersion stage written by a forked helper and
    # in line: the same files, and the same stdout and stderr writes in the
    # same order
    argv, out = report_case(tmp_path, case), tmp_path / "rep"
    ahead = report_outputs(monkeypatch, argv, out)
    with another_thread():
        in_line = report_outputs(monkeypatch, argv, out)
    assert ahead[3] == forks and in_line[3] == 0
    assert ahead[:3] == in_line[:3]
    assert report_stages(out) == dict(zip(STAGES, stages))
    if case == "E3-between-nodes":
        assert "".join(text for tag, text in ahead[2] if tag == "err") == "".join(
            f"{stage}: condition failure: E3\n" for stage in STAGES)


def test_report_helper_numerical_fault_is_the_stages(tmp_path, monkeypatch, sampling_path):
    # a numerical fault in the dispersion stage's writes is its exit code 4,
    # with no manifest, on both paths, and the later stages still run
    def faulty(path, shape, columns):
        raise NumericalFault("dispersion.csv: a value that is not finite")

    monkeypatch.setattr(cli, "_write_csv", faulty)
    out = tmp_path / "rep"
    code, files, log, forks = report_outputs(monkeypatch, nn_args(L=32), out)
    assert (code, forks) == (4, int(sampling_path == "fork"))
    assert report_stages(out) == {"dispersion": 4, "critical": 0, "limit": 0, "mixing": 0}
    assert not any(name.startswith("dispersion") for name in files)
    assert log[:2] == [("err", "dispersion: numerical fault: dispersion.csv: a value that is "
                               "not finite"), ("err", "\n")]
    assert [text.split(":")[0] for tag, text in log[2:] if tag == "out" and text != "\n"] == [
        "critical", "limit", "mixing", "report"]


def test_report_helper_crash_is_raised_by_main(tmp_path, monkeypatch, sampling_path):
    # an error outside the exit-code table, raised in the dispersion stage's
    # writes, leaves main with its class and message on both paths; the
    # helper's is raised once the later stages have written their files,
    # whose text is dropped as if they had not run
    out = tmp_path / "rep"
    out.mkdir()
    (out / "dispersion").write_text("a file where the stage's directory goes")
    log = []
    with redirect_stdout(Tagged(log, "out")), redirect_stderr(Tagged(log, "err")), \
            pytest.raises(FileExistsError) as raised:
        main(["report"] + nn_args(L=32) + ["--output", str(out)])
    assert str(raised.value) == f"[Errno 17] File exists: '{out / 'dispersion'}'"
    assert log == []
    assert not (out / "summary.json").exists()
    assert (out / "mixing" / "manifest.json").exists() == (sampling_path == "fork")
    assert_no_child_left()


@pytest.mark.parametrize("sampling_path", ["fork"], indirect=True)
def test_report_helper_that_dies_raises_its_status(tmp_path, monkeypatch, sampling_path):
    caller = os.getpid()
    for act, how in ((lambda: os._exit(3), "exited with code 3"),
                     (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")):
        def dies(path, shape, columns):
            assert os.getpid() != caller, "written in the calling process"
            act()

        monkeypatch.setattr(cli, "_write_csv", dies)
        out = tmp_path / how.split()[-1]
        with pytest.raises(RuntimeError,
                           match=f"^the dispersion process {how} before it reported$"):
            main(["report"] + nn_args(L=32) + ["--output", str(out)])
        assert not (out / "summary.json").exists()
        assert (out / "mixing" / "manifest.json").exists()
        assert_no_child_left()


@pytest.mark.parametrize("sampling_path", ["fork"], indirect=True)
def test_report_helper_evaluates_no_grid_property(tmp_path, monkeypatch, sampling_path,
                                                  records):
    # every cached grid property that the dispersion table reads is set
    # before the helper forks, so the helper evaluates none (nor the BLAS or
    # LAPACK calls behind them); each evaluation is recorded in a file, which
    # a helper's records reach too
    cached = [name for name, value in vars(DispersionGrid).items()
              if isinstance(value, cached_property)]
    for name in cached:
        prop = cached_property(lambda grid, name=name, f=getattr(DispersionGrid, name).func:
                               records.add(os.getpid(), name) or f(grid))
        prop.__set_name__(DispersionGrid, name)
        monkeypatch.setattr(DispersionGrid, name, prop)
    assert main(["dispersion"] + nn_args(L=32) + ["--output", str(tmp_path / "disp")]) == 0
    table_reads = {name for _, name in records.read()}
    assert {"branch_values", "branch_gradients", "hessian_determinants", "ck"} <= table_reads
    records.clear()
    grids, set_at_fork, helper = [], [], cli.Helper

    def built(*args):
        grids.append(crystalstat.dispersion_grid(*args))
        return grids[-1]

    def forked(*args):
        [grid] = grids
        set_at_fork.append({name for name in cached if name in vars(grid)})
        return helper(*args)

    monkeypatch.setattr(cli, "dispersion_grid", built)
    monkeypatch.setattr(cli, "Helper", forked)
    assert main(["report"] + nn_args(L=32) + ["--output", str(tmp_path / "rep")]) == 0
    assert len(set_at_fork) == 1 and table_reads <= set_at_fork[0]
    assert {pid for pid, _ in records.read()} == {os.getpid()}


def test_one_dispersion_grid_per_run(tmp_path, monkeypatch):
    resolutions = []

    def counting(kernel, L, *rest):
        resolutions.append(L)
        return crystalstat.dispersion_grid(kernel, L, *rest)

    monkeypatch.setattr(cli, "dispersion_grid", counting)
    assert main(["report"] + nn_args(L=32) + ["--output", str(tmp_path / "rep")]) == 0
    assert resolutions == [32]
    resolutions.clear()
    assert main(["green"] + nn_args(L=64) + [
        "--times", "1", "2", "3", "4", "--dump-radius", "1",
        "--output", str(tmp_path / "green")]) == 0
    assert resolutions == [64]


def test_one_condition_scan_per_run(tmp_path, monkeypatch):
    # report's stages share one E4/E5 check and one C_k evaluation; the
    # gated stages alone never evaluate C_k, which E4 does not read
    calls = []
    counting_property(monkeypatch, calls, DispersionGrid, "ck")
    monkeypatch.setattr(cli, "check_E4_E5", counting(calls, crystalstat.check_E4_E5))
    assert main(["report"] + nn_args(L=32) + ["--output", str(tmp_path / "rep")]) == 0
    assert calls == ["check_E4_E5", "ck"]
    calls.clear()
    assert main(["limit"] + nn_args(L=32) + ["--white", "T0=1", "T1=1",
                                             "--output", str(tmp_path / "lim")]) == 0
    assert calls == ["check_E4_E5"]


def test_green_cutoff_once(tmp_path, monkeypatch):
    # one C_k evaluation and one distance transform, shared by every time
    # stamp; green reads the grid's critical set and checks no condition
    calls = []
    counting_property(monkeypatch, calls, DispersionGrid, "ck")
    monkeypatch.setattr(cli, "check_E4_E5", counting(calls, crystalstat.check_E4_E5))
    monkeypatch.setattr(dynamics, "_chebyshev_distance_steps",
                        counting(calls, dynamics._chebyshev_distance_steps))
    assert main(["green"] + nn_args(L=256) + [
        "--eps", "0.3", "--times", "10", "20", "40", "80", "--dump-radius", "1",
        "--output", str(tmp_path / "green")]) == 0
    assert calls == ["ck", "_chebyshev_distance_steps"]


def test_one_limit_per_run(tmp_path, monkeypatch):
    # report's limit and mixing stages share one measure, ES check and limit
    calls = []
    monkeypatch.setattr(cli, "white_noise_density",
                        counting(calls, crystalstat.white_noise_density))
    monkeypatch.setattr(cli, "check_ES", counting(calls, crystalstat.check_ES))
    monkeypatch.setattr(cli, "limit_density", counting(calls, crystalstat.limit_density))
    assert main(["report"] + nn_args(L=32) + ["--output", str(tmp_path / "rep")]) == 0
    assert calls == ["white_noise_density", "check_ES", "limit_density"]


def test_report_stages_record_the_default_measure(tmp_path):
    # the run's own manifest records the config; each stage's, the measure it used
    out = tmp_path / "rep"
    assert main(["report"] + nn_args(L=32) + ["--output", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["measure"] is None
    for stage in STAGES:
        manifest = json.loads((out / stage / "manifest.json").read_text())
        assert manifest["config"]["measure"] == {"type": "white", "T0": 1.0, "T1": 1.0}


@pytest.mark.parametrize("command", [["evolve"], ["mixing"], ["limit", "--allow-degenerate"]],
                         ids=["evolve", "mixing", "limit-allow-degenerate"])
def test_es_failure_is_condition_failure(tmp_path, capsys, command):
    # the massless chain degenerates at theta = 0, where the inverse-frequency
    # weight of white noise is not summable; --allow-degenerate waives E4/E5 only
    out = tmp_path / "o"
    code = main(command + ["--nn", "d=1", "n=1", "m=0", "--L", "256",
                           "--white", "T0=1", "T1=1", "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "condition failure: ES\n"
    reports = json.loads(captured.out)
    assert [r["condition"] for r in reports] == ["E1", "E2", "E3", "E4", "E5", "ES"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["evolve", "limit", "mixing"])
def test_transformed_measure_has_no_limit(tmp_path, capsys, command):
    # these commands take no --transform; a config can still give them a
    # transformed measure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": {"type": "transformed",
                                           "base": {"type": "white", "T0": 1, "T1": 1},
                                           "a0": 2}}))
    transformed = ["--config", str(cfg), "--output", str(tmp_path / "o")]
    assert main([command] + nn_args(L=32) + transformed) == 1
    assert capsys.readouterr().err == (
        f"usage error: {command} needs a Gaussian measure with an explicit density\n")
    # E1-E5 are gated before the measure is read
    flat = ["--kernel-file", str(flat_kernel_file(tmp_path)), "--L", "32"]
    assert main([command] + flat + transformed) == 2
    assert capsys.readouterr().err == "condition failure: E4, E5\n"


@pytest.mark.parametrize("component", ["5", "-1"])
def test_component_out_of_range_is_usage_error(tmp_path, capsys, component):
    code = main(["mixing"] + nn_args(L=64) + ["--component", component,
                                              "--output", str(tmp_path / "mix")])
    assert code == 1
    assert f"component {component} is outside 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, doc, message", [
    ("--kernel-file", {"d": 1, "n": 1}, "kernel file lacks keys ['N', 'entries']"),
    ("--kernel-file", {"d": 1, "n": 1, "N": 1, "entries": 3},
     "kernel file entries must be a list"),
    ("--kernel-file", {"d": 1, "n": 1, "N": 1, "entries": [{"z": [0]}]},
     "each kernel file entry needs keys 'z' and 'matrix'"),
    ("--measure-file", {"L": 64},
     "density file lacks fields ['d', 'n', 'matrix_re', 'matrix_im']"),
    ("--config", {"thresholds": 3}, "config thresholds must be a JSON object"),
    ("--config", {"times": [10.0, float("inf")]}, "times must be finite, got [10.0, inf]"),
    ("--config", {"thresholds": {"delta_null": float("nan")}},
     "delta_null must be finite and nonnegative, got nan"),
    # json reads the NaN token, which the density rejects
    ("--measure-file", "nan-entry", "density matrix must be finite"),
])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, flag, doc, message):
    if doc == "nan-entry":
        doc = density_to_jsonable(white_noise_density(1.0, 1.0, 1, 1, 64))
        doc["matrix_re"][3][0][0] = math.nan
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "mix"
    argv = ["mixing", "--L", "64", flag, str(path), "--output", str(out)]
    if flag != "--kernel-file":
        argv += nn_args()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


NN_KERNEL = {"d": 1, "n": 1, "N": 1, "entries": [{"z": [0], "matrix": [[3.0]]},
                                                 {"z": [1], "matrix": [[-1.0]]}]}


@pytest.mark.parametrize("argv, doc, message", [
    (["dispersion", "--kernel-file"], dict(NN_KERNEL, d=1.7, N=1.9),
     "kernel file d must be an integer, got 1.7"),
    (["dispersion", "--kernel-file"], dict(NN_KERNEL, n=True),
     "kernel file n must be an integer, got True"),
    (["dispersion", "--kernel-file"], dict(NN_KERNEL, entries=[
        {"z": [0.6], "matrix": [[3.0]]}, {"z": [1], "matrix": [[-1.0]]}]),
     "kernel file offsets must be lists of integers, got [0.6]"),
    (["dispersion", "--kernel-file"], dict(NN_KERNEL, entries=[{"z": 0, "matrix": [[3.0]]}]),
     "kernel file offsets must be lists of integers, got 0"),
    (["limit"] + nn_args() + ["--measure-file"], {"L": 16.9, "d": True, "n": 1.2},
     "density file L must be an integer, got 16.9"),
    (["limit"] + nn_args() + ["--measure-file"], {"n": True},
     "density file n must be an integer, got True"),
    (["limit"] + nn_args() + ["--measure-file"], {"excluded": [True]},
     "density file excluded must be an all-boolean array of shape (16,)"),
    (["limit"] + nn_args() + ["--measure-file"], {"excluded": [0.5] * 16},
     "density file excluded must be an all-boolean array of shape (16,)"),
    # a matrix entry that is not an int or a float is refused, not read as a number
    *((["dispersion", "--kernel-file"], dict(NN_KERNEL, entries=[
        {"z": [0], "matrix": matrix}, {"z": [1], "matrix": [[-1.0]]}]),
       "kernel file matrix at (0,) must be an array of numbers")
      for matrix in ({}, [["2"]], [[True]], [[None]], [[10 ** 400]])),
    *((["limit"] + nn_args() + ["--measure-file"], {key: matrix},
       f"density file {key} must be an array of numbers")
      for key, matrix in (("matrix_re", {}), ("matrix_im", [[[True]]] * 16),
                          ("matrix_re", [[["1"]]] * 16), ("matrix_re", [[[10 ** 400]]] * 16))),
    # a part of one node is refused, not broadcast to the grid; so is d = 0
    *((["limit"] + nn_args() + ["--measure-file"], {key: [[1.0, 0.0], [0.0, 1.0]]},
       "density matrix must have shape (16, 2, 2)") for key in ("matrix_re", "matrix_im")),
    (["limit"] + nn_args() + ["--measure-file"],
     {"d": 0, "matrix_re": [[1.0, 0.0], [0.0, 1.0]], "matrix_im": [[0.0, 0.0], [0.0, 0.0]]},
     "density matrix must have shape (L,)*d + (2n, 2n) with d, n >= 1, got (2, 2)"),
    # an offset coordinate that no array index holds is refused, not a traceback
    (["dispersion", "--kernel-file"], dict(NN_KERNEL, N=10 ** 30, entries=[
        {"z": [0], "matrix": [[3.0]]}, {"z": [10 ** 30], "matrix": [[-1.0]]}]),
     "kernel file offset coordinates must lie in -9223372036854775808..9223372036854775807, "
     f"got [{10 ** 30}]"),
], ids=["kernel-d-N", "kernel-n-bool", "kernel-offset", "kernel-offset-scalar",
        "density-L-d-n", "density-n-bool", "density-excluded-shape", "density-excluded-float",
        "kernel-matrix-object", "kernel-matrix-string", "kernel-matrix-bool",
        "kernel-matrix-null", "kernel-matrix-huge-int", "density-re-object",
        "density-im-bool", "density-re-string", "density-re-huge-int", "density-re-one-node",
        "density-im-one-node", "density-d-0", "kernel-offset-huge"])
def test_file_integers_are_checked_not_truncated(tmp_path, capsys, argv, doc, message):
    if argv[0] == "limit":
        doc = dict(density_to_jsonable(white_noise_density(1.0, 1.0, 1, 1, 16)), **doc)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(argv + [str(path), "--L", "16", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def reference_ck(grid, delta_hess):
    """C_k spelled out independently of the grid: a node off the crossings
    where a branch has |det Hess| <= delta_hess, or where its determinant
    changes sign across an edge to another node off the crossings."""
    D = grid.hessian_determinants
    valid = ~grid.crossing
    ck_branch = (np.abs(D) <= delta_hess) & valid[..., None]
    for axis in range(grid.d):
        Dn = np.roll(D, -1, axis=axis)
        vn = np.roll(valid, -1, axis=axis)
        change = (D * Dn < 0.0) & valid[..., None] & vn[..., None]
        ck_branch |= change
        ck_branch |= np.roll(change, 1, axis=axis)
    return np.any(ck_branch, axis=-1)


def reference_E4_E5(grid, delta_hess):
    """(condition, verdict, witnesses, tolerances) of E4 and E5, read off the
    nodes outside the grid's C_0 and crossing flags."""
    valid = ~(grid.crossing | grid.c0)
    D, W = grid.hessian_determinants, grid.branch_values
    if not valid.any():
        none = [{"value": 0.0, "note": "every node flagged; no usable evidence"}]
        return [("E4", "inconclusive", none, {"delta_hess": delta_hess}),
                ("E5", "inconclusive", none, {"delta_const": DELTA_CONST})]
    best = [float(np.abs(D[..., b])[valid].max()) for b in range(grid.n)]
    e4 = [{"branch": b, "value": best[b],
           "note": "max |det Hess| over unflagged nodes is below threshold"}
          for b in range(grid.n) if best[b] <= delta_hess]
    e5 = []
    for b, c in itertools.combinations(range(grid.n), 2):
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            pair = (W[..., b] + sign * W[..., c])[valid]
            mean, var = float(pair.mean()), float(pair.var())
            if var < DELTA_CONST**2 and abs(mean) > DELTA_CONST:
                e5.append({"branches": [b, c], "relation": tag, "value": mean,
                           "variance": var})
    return [("E4", "fail" if e4 else "pass", e4, {"delta_hess": delta_hess}),
            ("E5", "fail" if e5 else "pass", e5, {"delta_const": DELTA_CONST})]


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       delta_hess=st.sampled_from([0.0, 1e-6, 1e-3, 0.5]),
       delta_cross=st.sampled_from([1e-6, 1e-2]), seed=st.integers(0, 2**16))
# an E4 failure, and crossings in d = 2
@example(d=1, n=3, delta_hess=0.5, delta_cross=1e-2, seed=1)
@example(d=2, n=3, delta_hess=1e-3, delta_cross=1e-2, seed=1)
def test_critical_set_is_decided_once_on_the_grid(d, n, delta_hess, delta_cross, seed):
    L = {1: 64, 2: 32, 3: 16}[d]
    grid = dispersion_grid(random_finite_range_kernel(d, n, 1, seed), L, delta_cross,
                           DELTA_NULL, delta_hess)
    assert grid.delta_hess == delta_hess
    ck = reference_ck(grid, delta_hess)
    critical = grid.c0 | grid.crossing | ck
    np.testing.assert_array_equal(grid.ck, ck)
    np.testing.assert_array_equal(grid.critical, critical)
    assert [(r.condition, r.verdict, r.witnesses, r.tolerances)
            for r in check_E4_E5(grid)] == reference_E4_E5(grid, delta_hess)
    # critical.json counts the same flags, at the thresholds the grid holds
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "crit"
        assert main(["critical", "--random", f"d={d}", f"n={n}", "range=1", f"seed={seed}",
                     "--L", str(L), "--delta-cross", repr(delta_cross),
                     "--delta-hess", repr(delta_hess), "--output", str(out)]) == 0
        doc = json.loads((out / "critical.json").read_text())
    counts = {"C0": int(grid.c0.sum()), "Cstar": int(grid.crossing.sum()),
              "Ck": int(ck.sum()), "combined": int(critical.sum())}
    assert doc == {"L": L, "counts": counts,
                   "fractions": {k: v / critical.size for k, v in counts.items()},
                   "thresholds": {"delta_cross": delta_cross, "delta_hess": delta_hess,
                                  "delta_null": DELTA_NULL}}


def test_threshold_flags_reach_E4_E5(tmp_path):
    # a Hessian threshold above every curvature flags all nodes and fails E4
    out = tmp_path / "disp"
    code = main(["dispersion"] + nn_args(L=64) + ["--delta-hess", "10",
                                                  "--output", str(out)])
    assert code == 0
    rows = (out / "dispersion.csv").read_text().splitlines()[1:]
    assert len(rows) == 64 and all(row.endswith(",Ck") for row in rows)
    reports = {r["condition"]: r for r in json.loads((out / "conditions.json").read_text())}
    assert reports["E4"]["verdict"] == "fail"
    assert reports["E4"]["tolerances"] == {"delta_hess": 10.0}


def test_threads_flag_is_gone(capsys):
    code = main(["dispersion"] + nn_args(L=32, threads=2))
    assert code == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_allow_degenerate_only_where_read(capsys):
    code = main(["dispersion"] + nn_args(L=32) + ["--allow-degenerate"])
    assert code == 1
    assert "unrecognized arguments: --allow-degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    *(pytest.param(["green", "--eps", eps, "--times", "10"],
                   "eps must be finite and nonnegative", id=eps)
      for eps in ("-0.5", "nan", "inf")),
    # the other non-finite times and thresholds fail before the output exists
    pytest.param(["evolve", "--triangular", "nu0=2", "--t", "inf"],
                 "times must be finite, got [inf]", id="t-inf"),
    pytest.param(["mixing", "--times", "0", "nan"],
                 "times must be finite, got [0.0, nan]", id="times-nan"),
    pytest.param(["dispersion", "--delta-hess", "nan"],
                 "delta_hess must be finite and nonnegative, got nan", id="delta-hess-nan"),
    pytest.param(["critical", "--delta-cross", "inf"],
                 "delta_cross must be finite and nonnegative, got inf", id="delta-cross-inf"),
    pytest.param(["limit", "--white", "T0=1", "--delta-null=-inf"],
                 "delta_null must be finite and nonnegative, got -inf", id="delta-null--inf"),
    *(pytest.param([command, f"--{flag}=-1"], f"{key} must be finite and nonnegative, got -1.0",
                   id=f"{flag}--1")
      for command, flag, key in (("limit", "delta-cross", "delta_cross"),
                                 ("dispersion", "delta-hess", "delta_hess"),
                                 ("mixing", "delta-null", "delta_null"))),
    # usage errors of the table and of the library leave no output directory either
    pytest.param(["dispersion", "--L", "0"], "L must be a positive integer, got 0", id="L-0"),
    pytest.param(["ensemble", "--white", "T0=1", "--ensemble=-5"],
                 "ensemble must be a positive integer, got -5", id="ensemble--5"),
    pytest.param(["dispersion", "--L", "-3", "--grid-L", "32", "--ensemble", "-7"],
                 "L must be a positive integer, got -3", id="L--3"),
    # an L whose L^d nodes no array can index; each fails at parent while a
    # shape is built, so none of them allocates
    pytest.param(["dispersion", "--L", str(2 ** 63)],
                 f"L^1 must be at most {INTP_MAX} lattice nodes, got L={2 ** 63}", id="L-2**63"),
    pytest.param(["critical", "--grid-L", str(10 ** 23)],
                 f"grid_L^1 must be at most {INTP_MAX} lattice nodes, got grid_L={10 ** 23}",
                 id="grid-L-1e23"),
    pytest.param(["limit", "--white", "T0=1", "T1=1", "--nn", "d=2", "n=1", "--L", str(2 ** 32)],
                 f"L^2 must be at most {INTP_MAX} lattice nodes, got L={2 ** 32}",
                 id="L-2**32-d2"),
    # the per-command options fail once the kernel exists, before its grid
    pytest.param(["clt", "--component", "7"], "component 7 is outside 0..1", id="component-7"),
    pytest.param(["mixing", "--component", "-1"], "component -1 is outside 0..1",
                 id="mixing-component--1"),
    pytest.param(["green", "--dump-radius", "128"],
                 "--dump-radius must fit inside the lattice window", id="dump-radius-128"),
    pytest.param(["gibbs", "--T1", "nan", "--t", "1", "--ensemble", "200"],
                 "temperatures must be finite and nonnegative, got T0=0.0 T1=nan",
                 id="gibbs-T1-nan"),
    *(pytest.param(["gibbs", "--T1", T1, "--t", "1", "--ensemble", "200"],
                   f"temperatures must be finite and nonnegative, got T0=0.0 T1={float(T1)}",
                   id=f"gibbs-T1-{T1}")
      for T1 in ("inf", "-1")),
    # so do the sampling commands' measures, clt's measure type and the count
    pytest.param(["clt", "--ensemble", "999"], "need at least 1000 samples for moment diagnostics",
                 id="clt-ensemble-999"),
    pytest.param(["clt", "--white", "T0=1", "T1=1"], "clt needs a transformed triangular measure",
                 id="clt-white"),
    pytest.param(["gibbs", "--ensemble", "99"],
                 "need at least 100 samples for covariance error bars", id="gibbs-ensemble-99"),
    pytest.param(["ensemble", "--white", "T0=1", "T1=1", "--ensemble", "50"],
                 "need at least 100 samples for covariance error bars", id="ensemble-50"),
    pytest.param(["ensemble", "--measure-file", "/nonexistent.json"],
                 "cannot read measure file", id="ensemble-measure-file"),
    pytest.param(["dispersion", "--nn", "m=-1"], "mass must be finite and nonnegative, got -1.0",
                 id="mass--1"),
    pytest.param(["limit", "--white", "T0=nan", "T1=1"],
                 "temperatures must be finite and nonnegative, got T0=nan T1=1.0", id="T0-nan"),
    pytest.param(["limit", "--white", "T0=inf", "T1=1"],
                 "temperatures must be finite and nonnegative, got T0=inf T1=1.0", id="T0-inf"),
])
def test_bad_eps_is_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    calls = []
    monkeypatch.setattr(cli, "dispersion_grid", counting(calls, crystalstat.dispersion_grid))
    out = tmp_path / "out"
    code = main(argv[:1] + nn_args(L=256) + argv[1:] + ["--output", str(out)])
    assert code == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


_SAMPLED = {"ensemble": ["--white", "T0=1", "T1=1"], "gibbs": [], "clt": []}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(_SAMPLED))
def test_sampling_commands_take_one_time(tmp_path, monkeypatch, capsys, command, source):
    # the sampling commands run at one time; a second is refused before the
    # grid is built, not dropped
    calls = []
    monkeypatch.setattr(cli, "dispersion_grid", counting(calls, crystalstat.dispersion_grid))
    if source == "flag":
        times = ["--times", "10", "50"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"times": [10, 50]}))
        times = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    code = main([command] + nn_args(L=64) + _SAMPLED[command] + times
                + ["--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"usage error: {command} samples at one time, got times [10.0, 50.0]\n")
    assert not out.exists()
    assert calls == []



@pytest.mark.parametrize("command, flag", [
    ("dispersion", ["--eps", "0.3"]),
    ("report", ["--eps", "0.3"]),
    ("green", ["--grid-L", "64"]),
    ("limit", ["--grid-L", "64"]),
])
def test_eps_and_grid_L_only_where_read(capsys, command, flag):
    code = main([command] + nn_args(L=32) + flag)
    assert code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "limit", "mixing", "report"])
def test_transform_only_where_sampled(tmp_path, capsys, command):
    # a transformed measure is only sampled, by ensemble and clt
    out = tmp_path / "o"
    code = main([command] + nn_args(L=32) + ["--white", "T0=1", "T1=1", "--transform",
                                             "a0=2", "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --transform a0=2\n"
    assert not out.exists()


def test_console_script_exit_codes(tmp_path):
    # the console script is pyproject's crystalstat -> crystalstat.cli:main;
    # `python -m crystalstat` runs the same main without an install
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["crystalstat"] == "crystalstat.cli:main"
    exe = [sys.executable, "-m", "crystalstat"]
    package_root = str(Path(crystalstat.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    ok = subprocess.run(
        exe + ["dispersion", "--nn", "d=1", "n=1", "m=1", "--L", "32",
               "--output", str(tmp_path / "ok")],
        capture_output=True, text=True, env=env)
    assert ok.returncode == 0

    path = tmp_path / "bad_kernel.json"
    path.write_text(json.dumps(kernel_to_jsonable(InteractionKernel(1, 1, {(0,): [[-1.0]]}))))
    bad = subprocess.run(
        exe + ["dispersion", "--kernel-file", str(path), "--L", "32",
               "--output", str(tmp_path / "bad")],
        capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    assert "condition failure" in bad.stderr


def test_cold_process_reaches_the_assignment_solver(tmp_path):
    # n > 4 sends every spanning-tree edge to the solver, which a cold process
    # loads on first use
    argv = ["dispersion", "--random", "d=1", "n=5", "range=2", "seed=0", "--L", "16"]
    package_root = str(Path(crystalstat.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    cold = subprocess.run([sys.executable, "-m", "crystalstat"] + argv
                          + ["--output", str(tmp_path / "cold")],
                          capture_output=True, text=True, env=env)
    assert cold.returncode == 0, cold.stderr
    assert main(argv + ["--output", str(tmp_path / "warm")]) == 0
    table = (tmp_path / "cold" / "dispersion.csv").read_bytes()
    assert table == (tmp_path / "warm" / "dispersion.csv").read_bytes()
    grid = dispersion_grid(random_finite_range_kernel(1, 5, 2, 0), 16)
    _, rows = read_table(tmp_path / "cold" / "dispersion.csv")
    assert [(int(row[1]), float(row[2])) for row in rows] == [
        (k, grid.branch_values[x, k]) for x in range(16) for k in range(5)]


@pytest.mark.parametrize("command, count, message", [
    ("clt", 999, "need at least 1000 samples for moment diagnostics"),
    ("clt", 0, "ensemble must be a positive integer, got 0"),
    ("ensemble", 99, "need at least 100 samples for covariance error bars"),
    ("ensemble", -3, "ensemble must be a positive integer, got -3"),
    ("gibbs", 99, "need at least 100 samples for covariance error bars"),
    ("gibbs", 0, "ensemble must be a positive integer, got 0"),
])
def test_small_ensemble_fails_before_the_first_draw(tmp_path, monkeypatch, capsys,
                                                    command, count, message):
    calls = []
    monkeypatch.setattr(GaussianSampler, "white_noise",
                        counting(calls, GaussianSampler.white_noise))
    measure = ["--white", "T0=1", "T1=1"] if command == "ensemble" else []
    code = main([command] + nn_args(L=16) + measure + [
        "--ensemble", str(count), "--t", "2", "--output", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert calls == []


def test_one_delta_null_gives_one_c0_set(tmp_path):
    # above the default, --delta-null flags the 9 nodes nearest theta = 0 of
    # the massless square lattice; the scan, ES, the limit and Gibbs agree
    flags = ["--nn", "d=2", "n=1", "m=0", "--L", "32", "--delta-null", "0.3"]
    assert main(["critical"] + flags + ["--output", str(tmp_path / "crit")]) == 0
    critical = json.loads((tmp_path / "crit" / "critical.json").read_text())
    assert critical["fractions"]["C0"] == 0.0087890625
    assert critical["thresholds"]["delta_null"] == 0.3
    assert main(["limit"] + flags + ["--white", "T0=1", "T1=1",
                                     "--output", str(tmp_path / "lim")]) == 0
    limit = json.loads((tmp_path / "lim" / "limit.json").read_text())
    assert limit["excluded_fraction"] == 0.0087890625
    assert limit["es"]["tolerances"]["delta_null"] == 0.3
    assert limit["es"]["note"].endswith("C0 fraction 8.789e-03")
    assert main(["gibbs"] + flags + ["--ensemble", "200", "--t", "1",
                                     "--output", str(tmp_path / "gibbs")]) in (0, 3)
    gibbs = json.loads((tmp_path / "gibbs" / "gibbs.json").read_text())
    assert gibbs["excluded_fraction"] == 0.0087890625


@pytest.mark.parametrize("argv, count, grid_values, report", [
    (["clt", "--nn", "d=1", "n=1", "m=1", "--L", "16", "--t", "3"], 1000, 16 * 2,
     "clt.json"),
    (["ensemble", "--nn", "d=2", "n=2", "m=1,2", "--L", "16", "--white", "T0=1", "T1=2",
      "--transform", "a0=1", "a1=1", "--t", "2"], 120, 16**2 * 4, "ensemble.json"),
    (["gibbs", "--nn", "d=1", "n=3", "m=1,2,3", "--L", "16", "--t", "2"], 110, 16 * 6,
     "gibbs.json"),
])
def test_sampling_outputs_do_not_depend_on_chunk_size(tmp_path, monkeypatch, capsys,
                                                      argv, count, grid_values, report):
    outputs = []
    for per_chunk in (1, 7, count):
        monkeypatch.setattr(stats, "CHUNK_BYTES", per_chunk * 16 * grid_values)
        out = tmp_path / str(per_chunk)
        code = main(argv + ["--ensemble", str(count), "--seed", "5", "--output", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((code, (out / report).read_bytes(), stdout))
    assert outputs[0][0] in (0, 3)
    assert outputs[0] == outputs[1] == outputs[2]


def test_indefinite_measure_is_numerical_fault(tmp_path, capsys):
    doc = density_to_jsonable(white_noise_density(1.0, 1.0, 1, 1, 16))
    doc["matrix_re"][5][0][0] = -0.5  # negative displacement variance at one node
    doc["matrix_re"][11][0][0] = -0.5  # and at its mirror node, keeping reality
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(doc))
    fault = ("numerical fault: density is not positive semidefinite at node (5,) "
             "(eigenvalue -5.000e-01)\n")
    # every command that reads the file checks it once, before any report
    for command, extra in (("ensemble", ["--ensemble", "100", "--t", "2"]), ("limit", []),
                           ("evolve", []), ("mixing", [])):
        out = tmp_path / command
        code = main([command] + nn_args(L=16) + ["--measure-file", str(path), "--output",
                                                  str(out)] + extra)
        assert code == 4, command
        assert capsys.readouterr().err == fault
        assert not out.exists()
    out = tmp_path / "rep"
    code = main(["report"] + nn_args(L=16) + ["--measure-file", str(path),
                                              "--output", str(out)])
    assert code == 4
    assert report_stages(out) == {"dispersion": 0, "critical": 0, "limit": 4, "mixing": 4}
    for stage in ("limit", "mixing"):
        assert not (out / stage).exists()
    assert capsys.readouterr().err == "limit: " + fault + "mixing: " + fault


def test_measure_file_flags_change_no_output_byte(tmp_path):
    # a measure file's excluded and cluster_id are checked and dropped: the
    # same file with and without them gives the same bytes on every command
    # that reads a measure file
    rng = np.random.default_rng(6)
    doc = density_to_jsonable(triangular_density(2, 1, 1.0, 0.5, 16))
    plain = dict(doc)
    doc["excluded"] = (rng.random(16) < 0.3).tolist()
    doc["cluster_id"] = rng.integers(0, 3, (16, 1)).tolist()
    path = tmp_path / "measure.json"
    for command, extra in (("ensemble", ["--ensemble", "100", "--t", "2"]), ("limit", []),
                           ("evolve", []), ("mixing", []), ("report", [])):
        out = tmp_path / command
        argv = [command] + nn_args(L=16) + ["--measure-file", str(path),
                                            "--output", str(out)] + extra
        outputs = []
        for measure in (doc, plain):
            path.write_text(json.dumps(measure))
            assert main(argv) == 0, command
            outputs.append({f.relative_to(out): f.read_bytes()
                            for f in sorted(out.rglob("*")) if f.is_file()})
            for f in sorted(out.rglob("*"), reverse=True):
                f.unlink() if f.is_file() else f.rmdir()
        assert outputs[0] and outputs[0] == outputs[1], command


def test_ES_without_a_ratio_is_inconclusive_not_a_crash(tmp_path, capsys):
    # the density lives on nodes 1 and 15, which only the finest ES grid holds,
    # so every coarser Riemann sum is zero and no refinement ratio exists
    matrix = np.zeros((16, 2, 2), dtype=complex)
    matrix[[1, 15]] = np.eye(2)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(density_to_jsonable(SpectralDensity(matrix))))
    massless = ["--nn", "d=1", "n=1", "m=0", "--L", "16", "--measure-file", str(path)]
    for command, stage in (("limit", "."), ("report", "limit")):
        out = tmp_path / command
        assert main([command] + massless + ["--output", str(out)]) == 0
        es = json.loads((out / stage / "limit.json").read_text())["es"]
        assert es["verdict"] == "inconclusive" and es["witnesses"][0]["value"] is None
    assert capsys.readouterr().err == ""


def test_report_records_numerical_fault_per_stage(tmp_path, monkeypatch, capsys):
    def faulty(*args, **kwargs):
        raise NumericalFault("limit: imaginary residue 1.000e-03 exceeds 1.0e-06")

    monkeypatch.setattr(cli, "limit_density", faulty)
    out = tmp_path / "rep"
    code = main(["report"] + nn_args(L=32) + ["--output", str(out)])
    assert code == 4
    assert json.loads((out / "summary.json").read_text()) == {
        "exit": 4, "stages": {"dispersion": 0, "critical": 0, "limit": 4, "mixing": 4}}
    err = capsys.readouterr().err
    assert "limit: numerical fault: limit: imaginary residue" in err
    assert "mixing: numerical fault: limit: imaginary residue" in err


def test_non_finite_report_value_is_numerical_fault(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "quadratic_form", lambda *args: math.nan)
    out = tmp_path / "mix"
    code = main(["mixing"] + nn_args(L=32) + ["--times", "0", "1", "--output", str(out)])
    assert code == 4
    assert capsys.readouterr().err == (
        "numerical fault: mixing.json: Out of range float values are not JSON compliant: nan\n")
    assert not out.exists()


def test_overflowing_symbol_is_numerical_fault_before_any_file(tmp_path, capsys):
    # finite entries whose symbol overflows pass E1-E3; the dispersion grid
    # refuses the symbol before the eigensolver, so no file is written
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(dict(NN_KERNEL, entries=[
        {"z": [0], "matrix": [[1e308]]}, {"z": [1], "matrix": [[-1e308]]}])))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["dispersion", "--kernel-file", str(path), "--L", "16",
                     "--output", str(out)])
    assert code == 4
    assert capsys.readouterr().err == (
        "numerical fault: the kernel's symbol is not finite at grid node (0,) (L=16)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["dispersion", "report"])
def test_overflowing_symbol_is_refused_without_numpy_warnings(tmp_path, command):
    # in a child process, where numpy's warnings would reach stderr: the
    # symbol grids of the run and of the E1-E3 scan overflow quietly and
    # are refused before the eigensolver, at the run's resolution
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(dict(NN_KERNEL, entries=[
        {"z": [0], "matrix": [[1e308]]}, {"z": [1], "matrix": [[-1e308]]}])))
    package_root = str(Path(crystalstat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "crystalstat", command, "--kernel-file",
                           str(path), "--L", "16", "--output", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 4
    fault = "numerical fault: the kernel's symbol is not finite at grid node (0,) (L=16)"
    stages = ["dispersion", "critical", "limit", "mixing"] if command == "report" else []
    assert done.stderr.splitlines() == ([f"{stage}: {fault}" for stage in stages] or [fault])


def run_outputs(tmp_path, argv, threads):
    """Every output file of a child-process run with BLAS/OpenMP pools at the
    given size, by relative path; manifests without their output path."""
    out = tmp_path / f"{argv[0]}-{threads}"
    package_root = str(Path(crystalstat.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("CRYSTALSTAT_SEED", None)
    done = subprocess.run([sys.executable, "-m", "crystalstat"] + argv + ["--output", str(out)],
                          capture_output=True, text=True, env=env)
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            assert manifest["config"].pop("output").startswith(str(out))
            data = manifest
        files[str(path.relative_to(out))] = data
    return done.returncode, files


@pytest.mark.parametrize("argv", [
    ["report", "--nn", "d=2", "n=2", "m=1,2", "--L", "16"],
    ["clt", "--nn", "d=1", "n=1", "m=1", "--L", "64", "--ensemble", "1000", "--t", "20",
     "--seed", "3"],
    # multi-axis FFTs and 2 x 2 nodewise einsums of the sampler and the propagator
    ["ensemble", "--nn", "d=2", "n=2", "m=1,2", "--L", "16", "--white", "T0=1", "T1=2",
     "--transform", "a0=1", "a1=2", "--ensemble", "200", "--t", "3", "--seed", "3"],
], ids=["report", "clt", "ensemble"])
def test_outputs_do_not_depend_on_thread_count(tmp_path, argv):
    counts = sorted({1, min(2, os.cpu_count() or 1)})
    if len(counts) < 2:
        pytest.skip("one CPU: a single thread count to compare")
    (code1, files1), (code2, files2) = (run_outputs(tmp_path, argv, c) for c in counts)
    assert code1 == code2 and code1 in (0, 3)
    assert files1 and files1 == files2
