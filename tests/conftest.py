"""Fixtures shared by more than one test module."""

import numpy as np
import pytest


@pytest.fixture()
def sfc64_streams(monkeypatch):
    """(seed, spawn key) of every SFC64 generator built during the test."""
    streams = []
    sfc64 = np.random.SFC64

    def recording_sfc64(seed_sequence):
        streams.append((seed_sequence.entropy, seed_sequence.spawn_key))
        return sfc64(seed_sequence)

    monkeypatch.setattr(np.random, "SFC64", recording_sfc64)
    return streams
