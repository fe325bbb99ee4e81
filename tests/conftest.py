"""Fixtures shared by more than one test module."""

import os

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


@pytest.fixture()
def usable_cpus(monkeypatch):
    """usable_cpus(n) makes the process's CPU affinity read as n CPUs, the
    count the Monte Carlo loops run their threads by."""

    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return pin
