import numpy as np
import pytest
from hypothesis import settings

from srkit import ops
from srkit.config import parse_config
from srkit.data import synth_generate
from srkit.train import train

settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def toy_run():
    """The default toy training run, shared across the session.

    Trains the stock configuration (SR after stage 3, channel dropout,
    30-epoch budget with early stopping) once; several analysis and
    acceptance tests read from it.
    """
    run = parse_config({})
    result = train(run.host, run.train, run.data)
    splits = synth_generate(run.data)
    return run, result, splits


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(k): the split passes (3x3 convolutions, ReLU, SR block) run on
    k threads (SRKIT_THREADS=k), the calling thread and a fresh pool of k - 1
    helpers, until the test ends; every pool made is shut down and the
    session's pool comes back after."""
    pools = []

    def use(k):
        monkeypatch.setenv("SRKIT_THREADS", str(k))
        pools.append([])
        monkeypatch.setattr(ops, "_POOL", pools[-1])

    yield use
    for pool in pools:
        if pool and pool[0] is not None:
            pool[0].shutdown()


@pytest.fixture
def pool_submissions(monkeypatch):
    """The functions handed to any ThreadPoolExecutor until the test ends."""
    from concurrent.futures import ThreadPoolExecutor

    seen = []
    submit = ThreadPoolExecutor.submit

    def recording_submit(self, fn, /, *args, **kwargs):
        seen.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
    return seen


@pytest.fixture
def chunk_calls(monkeypatch):
    """(n, size) of every ops._each_chunk call, in call order, until the test ends."""
    seen = []
    each_chunk = ops._each_chunk

    def recording_each_chunk(fn, n, size=ops._CHUNK):
        seen.append((n, size))
        return each_chunk(fn, n, size)

    monkeypatch.setattr(ops, "_each_chunk", recording_each_chunk)
    return seen
