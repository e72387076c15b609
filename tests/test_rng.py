"""Deterministic random-stream tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import rng
from repro.rng import (
    GLOBAL_SEED,
    StreamBank,
    seed_state_words,
    stable_hash,
    stable_hashes,
    stream,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_differs_on_coordinate_change(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_order_sensitive(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    @given(st.lists(st.one_of(st.text(), st.integers(), st.floats(allow_nan=False))))
    def test_always_64_bit(self, coords):
        value = stable_hash(*coords)
        assert 0 <= value < 2**64

    def test_stable_across_processes(self):
        # Regression pin: the hash must not depend on PYTHONHASHSEED.
        assert stable_hash("power-noise", "GTX 480") == stable_hash(
            "power-noise", "GTX 480"
        )


class TestStream:
    def test_same_coords_same_draws(self):
        a = stream("x", 1).normal(size=5)
        b = stream("x", 1).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_coords_different_draws(self):
        a = stream("x", 1).normal(size=5)
        b = stream("x", 2).normal(size=5)
        assert not np.array_equal(a, b)

    def test_seed_override_changes_stream(self):
        a = stream("x", seed=1).normal()
        b = stream("x", seed=2).normal()
        assert a != b

    def test_default_seed_is_global(self):
        a = stream("x").normal()
        b = stream("x", seed=GLOBAL_SEED).normal()
        assert a == b


class _Label(str):
    """A ``str`` subclass whose ``repr`` differs from an equal ``str``'s."""

    def __repr__(self) -> str:
        return f"_Label({str.__repr__(self)})"


_NAMES = ["GTX 480", "H-H", "naïve µs", "a\x1fb", "\x1f", "", "日本"]

coordinates = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False]),
    st.sampled_from(_NAMES),
    st.sampled_from(_NAMES).map(_Label),
    st.text(),
    st.floats(allow_nan=False),
    st.integers(),
)


class TestStableHashes:
    @given(st.lists(st.lists(coordinates, max_size=6).map(tuple), max_size=30))
    @example(
        [(1,), (1.0,), (True,), (0.0,), (-0.0,), ("H-H",), (_Label("H-H"),)]
        + [("a\x1fb",), ("a", "b"), ("naïve µs", 0.25, "naïve µs")]
    )
    def test_equals_stable_hash_per_tuple(self, coords_list):
        assert stable_hashes(coords_list) == [stable_hash(*c) for c in coords_list]


# ----------------------------------------------------------------------
# StreamBank's precomputed first draws vs numpy's generator
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def _write_state(bit_generator, state: int, inc: int) -> None:
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _seed_from_words(bit_generator, row: list[int]) -> None:
    """Reference: the PCG64 state ``srandom`` leaves for a seed-word row."""
    initstate = (row[0] << 64) | row[1]
    initseq = (row[2] << 64) | row[3]
    inc = ((initseq << 1) | 1) & _MASK128
    # srandom: state = 0; step; state += initstate; step.
    _write_state(bit_generator, ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc)


def _state_after_output(r: int, hi: int) -> int:
    """A PCG64 state whose XSL-RR output is ``r``, with high word ``hi``."""
    rot = hi >> 58
    lo = (((r << rot) | (r >> (64 - rot))) & _MASK64) ^ hi
    return (hi << 64) | lo


def _words_for_first_output(r: int, hi: int, initseq: int) -> list[int]:
    """Seed words whose generator's first 64-bit output is ``r``."""
    inc = ((initseq << 1) | 1) & _MASK128
    s0 = ((_state_after_output(r, hi) - inc) * _PCG_MULT_INV) & _MASK128
    initstate = ((s0 - inc) * _PCG_MULT_INV - inc) & _MASK128
    return [initstate >> 64, initstate & _MASK64, initseq >> 64, initseq & _MASK64]


def _ziggurat_r(idx: int, sign: int, rabs: int, top: int = 0) -> int:
    """A 64-bit output with ziggurat layer ``idx``, sign bit and ``rabs``."""
    return (top << 61) | (rabs << 9) | (sign << 8) | idx


class TestZigguratTables:
    def test_tables_match_numpy(self):
        """Re-derive ``wi``/``ki`` by steering numpy's first output.

        With ``rabs = 1`` the draw is exactly ``wi[idx]`` (from the fast
        path, or from the slow path's one extra uniform when
        ``ki[idx] == 0``); ``ki[idx]`` is the smallest ``rabs`` for
        which ``standard_normal`` consumes more than one output.
        """
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        hi = 0x05A5A5A5A5A5A5A5

        def probe(idx: int, rabs: int) -> tuple[int, float]:
            s1 = _state_after_output(_ziggurat_r(idx, 0, rabs), hi)
            _write_state(bit_generator, ((s1 - 1) * _PCG_MULT_INV) & _MASK128, 1)
            value = generator.standard_normal()
            state = bit_generator.state["state"]["state"]
            if state == s1:
                return 1, value
            return (2 if state == (s1 * _PCG_MULT + 1) & _MASK128 else 3), value

        wi, ki = [], []
        for idx in range(256):
            used, value = probe(idx, 1)
            assert used <= 2
            wi.append(value)
            if probe(idx, 0)[0] > 1:
                ki.append(0)
                continue
            # Invariant: probe(idx, accepted) takes one output, and rabs
            # never reaches 2**52.
            accepted, rejected = 0, 1 << 52
            while rejected - accepted > 1:
                mid = (accepted + rejected) // 2
                if probe(idx, mid)[0] == 1:
                    accepted = mid
                else:
                    rejected = mid
            ki.append(rejected)
        assert wi == rng._ZIGGURAT_WI.tolist()
        assert ki == rng._ZIGGURAT_KI.tolist()


def _forced_words() -> list[list[int]]:
    """Seed words steering the first output onto the ziggurat's edges."""
    ki = rng._ZIGGURAT_KI.tolist()
    rows = []
    for hi in (0x0123456789ABCDEF, (1 << 58) | 0xFEDCBA987654321, (63 << 58) | 0x5):
        for idx in (0, 1, 2, 128, 255):
            edges = {0, 1, ki[idx] - 1, ki[idx], (1 << 52) - 1} - {-1, 1 << 52}
            for rabs in sorted(edges):
                for sign in (0, 1):
                    for top in (0, 7):
                        r = _ziggurat_r(idx, sign, rabs, top)
                        rows.append(_words_for_first_output(r, hi, initseq=idx + 3))
    return rows


class TestStreamBankLanes:
    def test_forced_words_hit_the_intended_edges(self):
        rows = _forced_words()
        bit_generator = np.random.PCG64(0)
        seen_rotation_zero = seen_idx_zero = False
        for row in rows:
            _seed_from_words(bit_generator, row)
            bit_generator.advance(1)
            state = bit_generator.state["state"]["state"]
            seen_rotation_zero |= state >> 122 == 0
            _seed_from_words(bit_generator, row)
            seen_idx_zero |= bit_generator.random_raw() & 0xFF == 0
        assert seen_rotation_zero and seen_idx_zero

    def test_first_draws_match_numpy_on_random_and_forced_lanes(self):
        draws = np.random.default_rng(20260518)
        words = draws.integers(0, 1 << 64, size=(100_000, 4), dtype=np.uint64)
        words = np.concatenate([np.array(_forced_words(), dtype=np.uint64), words])
        n = len(words)
        locs = draws.normal(0.0, 3.0, n).tolist()
        scales = draws.exponential(2.0, n).tolist()
        lows = draws.normal(0.0, 3.0, n).tolist()
        spans = draws.exponential(2.0, n).tolist()
        bank = StreamBank()
        bank._extend([(i,) for i in range(n)], words)
        # A draw reads ``loc + scale * z`` and ``low + (high - low) * u``
        # off the columns; rejected lanes resolve through a generator.
        normals = bank.normals(np.arange(n)).tolist()
        uniforms = bank.uniforms(np.arange(n)).tolist()
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        mismatched = []
        for i, row in enumerate(words.tolist()):
            loc, scale, low, high = locs[i], scales[i], lows[i], lows[i] + spans[i]
            _seed_from_words(bit_generator, row)
            expect = (generator.normal(loc, scale),)
            _seed_from_words(bit_generator, row)
            expect += (generator.uniform(low, high),)
            got = (loc + scale * normals[i], low + (high - low) * uniforms[i])
            if not all(
                type(g) is float and g.hex() == e.hex() for g, e in zip(got, expect)
            ):
                mismatched.append(i)
        assert mismatched == []
        # The share numpy's ziggurat rejects (1.49 %), within about 8 sigma.
        expected = 1.0 - (rng._ZIGGURAT_KI / 2.0**52).mean()
        rejected = np.isnan(bank._normal[len(_forced_words()) : n]).mean()
        assert abs(rejected - expected) < 0.003

    @pytest.mark.parametrize("base", [GLOBAL_SEED, 1 << 40])
    def test_small_hashes_and_wide_bases_match_seedsequence(self, base):
        hashes = [0, 1, 123456789, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]
        hashes += [0x9E3779B97F4A7C15 * k & _MASK64 for k in range(1, 9)]
        bank = StreamBank(base)
        bank._extend([(h,) for h in hashes], seed_state_words(base, hashes))
        coords = [("meter", "GTX 680", f"bench-{i}", 0.5, "L-H") for i in range(12)]
        bank.prepare(coords)
        for key, reference in [((h,), [base, h]) for h in hashes] + [
            (c, [base, stable_hash(*c)]) for c in coords
        ]:
            normal, uniform = (
                np.random.default_rng(np.random.SeedSequence(reference))
                for _ in range(2)
            )
            assert bank.stream(*key).normal(0.5, 2.0) == normal.normal(0.5, 2.0)
            assert bank.stream(*key).uniform(0.25, 2.75) == uniform.uniform(0.25, 2.75)


_VIEW_COORDS = [("view", i) for i in range(400)]

_CALLS = st.tuples(
    st.sampled_from(["normal", "uniform"]),
    st.sampled_from(
        [
            (),
            (0.0, 1.0),
            (2.5, 0.5),
            (0.5, -0.0),
            (1, 2),
            (0.0, 0.0),
            (np.float64(0.5), 2.0),
        ]
    ),
    st.sampled_from([None, 3]),
)


def _outcome(method, args: tuple, size: int | None):
    """A draw's value, or its exception's type and message."""
    try:
        return method(*args, size=size)
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


class TestStreamView:
    def _bank(self) -> tuple[StreamBank, list[tuple]]:
        """A prepared bank and a lane mix: accepted lanes, then rejected ones."""
        bank = StreamBank()
        bank.prepare(_VIEW_COORDS)
        rejected = [c for c in _VIEW_COORDS if np.isnan(bank._normal[bank._lanes[c]])]
        assert rejected
        return bank, _VIEW_COORDS[:8] + rejected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.lists(_CALLS, min_size=1, max_size=4))
    def test_call_sequences_match_a_fresh_generator(self, data, calls):
        bank, lanes = self._bank()
        coords = data.draw(st.sampled_from(lanes))
        view, reference = bank.stream(*coords), stream(*coords)
        for name, args, size in calls:
            got = _outcome(getattr(view, name), args, size)
            expect = _outcome(getattr(reference, name), args, size)
            assert type(got) is type(expect)
            assert np.array_equal(got, expect)

    def test_size_calls_delegate(self):
        bank, lanes = self._bank()
        for coords in lanes:
            for name in ("normal", "uniform"):
                expect = getattr(stream(*coords), name)(size=5)
                got = getattr(bank.stream(*coords), name)(size=5)
                assert isinstance(got, np.ndarray)
                assert got.tobytes() == expect.tobytes()

    def test_nonzero_loc(self):
        bank, lanes = self._bank()
        for coords in lanes:
            assert bank.stream(*coords).normal(3.5, 0.25) == stream(*coords).normal(
                3.5, 0.25
            )

    def test_repeated_stream_call_restarts_the_stream(self):
        bank, lanes = self._bank()
        for coords in lanes:
            first = bank.stream(*coords).normal(0.0, 1.0)
            view = bank.stream(*coords)
            assert view.normal(0.0, 1.0) == first
            reference = stream(*coords)
            reference.normal(0.0, 1.0)
            assert view.uniform(0.0, 1.0) == reference.uniform(0.0, 1.0)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("normal", (0.0, -1.0)),
            ("normal", (0.0, -0.0)),
            ("uniform", (1.0, 0.0)),
            ("uniform", (0.0, -0.0)),
            ("uniform", (0.0, math.inf)),
            ("uniform", (math.nan, 1.0)),
        ],
    )
    def test_invalid_arguments_raise_as_numpy_does(self, name, args):
        bank, lanes = self._bank()
        with pytest.raises(Exception) as expected:
            getattr(stream(*lanes[0]), name)(*args)
        with pytest.raises(expected.type, match=str(expected.value)):
            getattr(bank.stream(*lanes[0]), name)(*args)
