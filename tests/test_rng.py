import numpy as np
import pytest

from stableou import RngStream


def test_same_seed_gives_identical_sequence():
    a = RngStream(123).generator.standard_normal(64)
    b = RngStream(123).generator.standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(123).generator.standard_normal(64)
    b = RngStream(124).generator.standard_normal(64)
    assert not np.array_equal(a, b)


def test_fork_is_deterministic():
    a = RngStream(7).fork(3).generator.standard_normal(32)
    b = RngStream(7).fork(3).generator.standard_normal(32)
    np.testing.assert_array_equal(a, b)


def test_fork_path_composes():
    nested = RngStream(7).fork(3).fork(5)
    direct = RngStream(7, path=(3, 5))
    assert nested.path == direct.path == (3, 5)
    np.testing.assert_array_equal(
        nested.generator.standard_normal(32), direct.generator.standard_normal(32)
    )


def test_sibling_forks_are_distinct_and_uncorrelated():
    parent = RngStream(42)
    x = parent.fork(0).generator.standard_normal(20000)
    y = parent.fork(1).generator.standard_normal(20000)
    assert not np.array_equal(x[:64], y[:64])
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.05


def test_fork_does_not_disturb_parent():
    a = RngStream(9)
    a.fork(0)
    a.fork(1)
    b = RngStream(9)
    np.testing.assert_array_equal(
        a.generator.standard_normal(16), b.generator.standard_normal(16)
    )


def test_seed_and_path_rebuild_the_stream():
    stream = RngStream(11, path=(2, 4))
    rebuilt = RngStream(stream.seed, stream.path)
    np.testing.assert_array_equal(
        stream.generator.standard_normal(16), rebuilt.generator.standard_normal(16)
    )


def test_repr_mentions_seed_and_path():
    text = repr(RngStream(5, path=(1,)))
    assert "5" in text and "1" in text
