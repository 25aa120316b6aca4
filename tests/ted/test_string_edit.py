"""Tests for plain and banded string edit distance (repro.ted.string_edit)."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ted.string_edit import string_edit_distance, string_edit_within

words = st.lists(st.sampled_from("abc"), max_size=12).map(tuple)


class TestFullDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("abc", "acb", 2),  # unit-cost model: no transposition
    ])
    def test_known_values(self, a, b, expected):
        assert string_edit_distance(a, b) == expected

    def test_works_on_label_sequences(self):
        a = ["node1", "node2", "node3"]
        b = ["node1", "other", "node3"]
        assert string_edit_distance(a, b) == 1

    @given(words, words)
    def test_symmetry(self, a, b):
        assert string_edit_distance(a, b) == string_edit_distance(b, a)

    @given(words, words, words)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        ab = string_edit_distance(a, b)
        bc = string_edit_distance(b, c)
        ac = string_edit_distance(a, c)
        assert ac <= ab + bc

    @given(words)
    def test_identity(self, a):
        assert string_edit_distance(a, a) == 0


class TestBanded:
    @given(words, words, st.integers(min_value=0, max_value=6))
    @settings(max_examples=200)
    def test_agrees_with_full_computation(self, a, b, tau):
        full = string_edit_distance(a, b)
        banded = string_edit_within(a, b, tau)
        if full <= tau:
            assert banded == full
        else:
            assert banded is None

    def test_negative_tau(self):
        assert string_edit_within("a", "a", -1) is None

    def test_length_difference_shortcut(self):
        assert string_edit_within("a", "abcdef", 2) is None

    def test_empty_sides(self):
        assert string_edit_within("", "ab", 2) == 2
        assert string_edit_within("ab", "", 1) is None
        assert string_edit_within("", "", 0) == 0

    def test_early_exit_on_long_dissimilar_strings(self):
        # Completely different symbols: the band saturates immediately.
        a = ["x"] * 500
        b = ["y"] * 500
        assert string_edit_within(a, b, 3) is None

    def test_randomized_against_full(self):
        rng = random.Random(7)
        for _ in range(200):
            a = [rng.choice("ab") for _ in range(rng.randint(0, 15))]
            b = [rng.choice("ab") for _ in range(rng.randint(0, 15))]
            tau = rng.randint(0, 5)
            full = string_edit_distance(a, b)
            expected = full if full <= tau else None
            assert string_edit_within(a, b, tau) == expected


class TestResourceBounds:
    """Time per call grows with ``n * tau``, not ``n1 * n2``: the rows are
    band-sized, so 100,000-symbol sequences cost what 100,000 rows of
    ``2*tau + 3`` cells cost."""

    WALL_SECONDS = 2.0

    @pytest.mark.parametrize("tau,expected", [(1, None), (2, 2)])
    def test_100k_symbols(self, tau, expected):
        # No common prefix or suffix, and the band never saturates (the
        # shifted alignment costs one edit per end), so every row runs.
        a = ["a", "b"] * 50_000
        b = ["b", "a"] * 50_000
        start = time.perf_counter()
        assert string_edit_within(a, b, tau) == expected
        assert time.perf_counter() - start < self.WALL_SECONDS

    def test_common_prefix_and_suffix_are_cut(self):
        a = ["x"] * 1000 + ["a", "b", "c"] + ["y"] * 1000
        b = ["x"] * 1000 + ["b", "c", "a"] + ["y"] * 1000
        assert string_edit_within(a, b, 2) == 2
        assert string_edit_within(a, b, 1) is None
        assert string_edit_within(a, a, 0) == 0
