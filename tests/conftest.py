import json
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from crystalstat import build_nn_kernel, dispersion_grid


@pytest.fixture(scope="session")
def nn1():
    """Nearest-neighbour chain, one component, unit mass."""
    return build_nn_kernel(1, 1, 1.0)


@pytest.fixture(scope="session")
def grid64(nn1):
    return dispersion_grid(nn1, 64)


@pytest.fixture(scope="session")
def grid256(nn1):
    return dispersion_grid(nn1, 256)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260822)


@contextmanager
def _second_thread():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        yield
    finally:
        release.set()
        other.join()


@pytest.fixture()
def another_thread():
    """A context manager that keeps a second Python thread alive, under
    which forking is unsafe: stream_ensemble samples in line and report
    writes its dispersion table in line, with no helper process."""
    return _second_thread


@pytest.fixture(params=["fork", "inline"])
def sampling_path(request):
    """Where the work that stream_ensemble and report run ahead runs:
    "fork", in a helper process forked while this is the only Python
    thread, or "inline", on the calling thread while a second thread is
    alive."""
    if request.param == "fork":
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        assert threading.active_count() == 1, "another thread selects the in-line path"
        yield "fork"
    else:
        with _second_thread():
            yield "inline"


class Records:
    """Records appended as JSON lines to one file, so that what a forked
    helper process records is read here too.  add(*fields) appends one
    record; read() returns every record as a tuple, in order; clear()
    removes them all."""

    def __init__(self, path):
        self.path = path

    def add(self, *fields):
        with open(self.path, "a") as f:
            f.write(json.dumps(fields) + "\n")

    def read(self):
        if not self.path.exists():
            return []
        return [tuple(json.loads(line)) for line in self.path.read_text().splitlines()]

    def clear(self):
        self.path.unlink(missing_ok=True)


@pytest.fixture()
def records(tmp_path):
    return Records(tmp_path / "records.jsonl")
