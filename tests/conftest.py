import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import polyharm
from polyharm.rationals import GaussianRational

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture
def rng():
    return random.Random(20240817)


def fractions(max_num=30, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def gaussian_rationals():
    return st.builds(GaussianRational, fractions(), fractions())


def nonzero_gaussian_rationals():
    return gaussian_rationals().filter(lambda q: not q.is_zero())


def subprocess_env() -> dict:
    """The environment of a child interpreter that imports this polyharm."""
    src = str(Path(polyharm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
