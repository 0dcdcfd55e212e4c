"""Benchmark configuration.

Every bench regenerates one table or figure of the paper at a scaled-
down corpus size (see docs/EXPERIMENTS.md) and prints the rows it
produced.
``benchmark.pedantic(..., rounds=1)`` is used throughout: the units of
work are whole experiments, not micro-kernels.

``--smoke`` runs the perf benches in a reduced-size mode for CI: small
corpora, relaxed (but still present) speedup assertions — enough to
break the build on a real performance regression without tying up a
shared runner.
"""

import sys
from pathlib import Path

import pytest

# Allow `from benchmarks...` style imports if ever needed and keep the
# repository root importable when benches run from another directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="reduced-size CI mode: tiny corpora, relaxed perf asserts",
    )


@pytest.fixture
def smoke(request):
    """Whether the bench runs in reduced-size CI mode."""
    return request.config.getoption("--smoke")
