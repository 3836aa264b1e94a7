import math

import pytest

from synthetic import two_thread_passes
from spellvec import nn


@pytest.fixture(params=[0, math.inf], ids=["two-threads", "fused"])
def two_thread_gate(request, monkeypatch):
    """Tape.bilstm's two-thread gate at 0 (every grad-free pass steps its
    directions on two threads, in a process that may run on two CPUs) and at
    infinity (none does). Gives the list of passes that took two threads and
    whether a pass should."""
    return two_thread_passes(monkeypatch, request.param), request.param == 0 and nn._cpus() > 1
