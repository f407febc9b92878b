from __future__ import annotations

import importlib.resources as resources
import os

import pytest

from support import BERKELEY, HOSPITAL


@pytest.fixture(autouse=True)
def no_hard_exit(monkeypatch):
    """``cli.main`` ends its process with ``os._exit``, which inside the test
    process would end the whole run part-way with status 0: there it fails
    the test instead. Tests run ``main`` in child processes. A process
    forked from the test process, as the records reader's helper, ends
    with ``os._exit`` as it must."""
    real_exit, test_process = os._exit, os.getpid()

    def refuse(code):
        if os.getpid() != test_process:
            real_exit(code)
        raise AssertionError(f"os._exit({code}) called in the test process")

    monkeypatch.setattr(os, "_exit", refuse)


def fixture_text(name: str) -> str:
    return (resources.files("confound") / "data" / name).read_text(encoding="utf-8")


@pytest.fixture
def hospital():
    return HOSPITAL


@pytest.fixture
def berkeley():
    return BERKELEY


@pytest.fixture
def hospital_csv() -> str:
    return fixture_text("hospital.csv")


@pytest.fixture
def berkeley_csv() -> str:
    return fixture_text("berkeley.csv")


@pytest.fixture
def robinson_csv() -> str:
    return fixture_text("robinson_synthetic.csv")
