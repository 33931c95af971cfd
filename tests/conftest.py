"""Shared fixtures for the test suite."""

import contextlib
import io
import json
import types

import pytest

from repro.chain import (
    ETH_CONFIG,
    Blockchain,
    PrivateKey,
    build_genesis,
    ether,
)
from repro.scenarios.dao import ChainWriter


@pytest.fixture
def alice_key():
    return PrivateKey.from_seed("test:alice")


@pytest.fixture
def bob_key():
    return PrivateKey.from_seed("test:bob")


@pytest.fixture
def miner_key():
    return PrivateKey.from_seed("test:miner")


@pytest.fixture
def funded_chain(alice_key, bob_key, miner_key):
    """A full-execution chain with two funded accounts and a writer."""
    genesis, state = build_genesis(
        {alice_key.address: ether(100), bob_key.address: ether(50)}
    )
    chain = Blockchain(ETH_CONFIG, genesis, state)
    writer = ChainWriter(chain, miner_key.address)
    return chain, writer


@pytest.fixture(scope="session")
def forksim_bench_smoke(tmp_path_factory):
    """One ``python -m repro bench --smoke --only forksim`` run, shared.

    The forksim bench smoke takes about half a minute, so the CLI test
    and the bench-harness test assert on the same run instead of each
    running it.
    """
    from repro.__main__ import main

    out_dir = tmp_path_factory.mktemp("bench_smoke")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            ["bench", "--smoke", "--only", "forksim",
             "--out-dir", str(out_dir),
             "--report-dir", str(out_dir / "reports")]
        )
    json_path = out_dir / "BENCH_forksim.json"
    return types.SimpleNamespace(
        code=code,
        out=out.getvalue(),
        err=err.getvalue(),
        out_dir=out_dir,
        payload=json.loads(json_path.read_text()) if json_path.exists() else None,
    )
