"""The random case stream of the verification batteries is pinned.

The batteries draw their cases from one seeded ``random.Random``; the CLI
prints their counters, and equal seeds must give byte-identical reports
across versions.  This test records every ``randint`` and ``randrange``
result the batteries draw, and pins the number of draws, a digest of
them and the report lines, so a refactor of a battery cannot change the
cases it checks without failing here.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from ruminslice import verify

SEED = 3
COUNT = 2

# (kind, n): (number of draws, first 16 hex digits of the sha256 of their
# repr, the report lines)
PINNED = {
    ("complex", 1): (224, "07d9acda22625105", (
        "Rumin complex over H^1 (seed 3, 2 cases per check)",
        "  dc o dc = 0 at degree 0: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 1: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 2: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 3: 2/2 exact [ok]",
        "  quotient well-defined at degree 0: 2/2 exact [ok]",
        "  middle operator is class-independent: 2/2 exact [ok]",
        "  d preserves J at degree 2: 2/2 exact [ok]",
        "  d preserves J at degree 3: 2/2 exact [ok]",
    )),
    ("complex", 2): (773, "bc2eed7dee4e7e68", (
        "Rumin complex over H^2 (seed 3, 2 cases per check)",
        "  dc o dc = 0 at degree 0: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 1: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 2: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 3: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 4: 2/2 exact [ok]",
        "  dc o dc = 0 at degree 5: 2/2 exact [ok]",
        "  quotient well-defined at degree 0: 2/2 exact [ok]",
        "  quotient well-defined at degree 1: 2/2 exact [ok]",
        "  middle operator is class-independent: 2/2 exact [ok]",
        "  d preserves J at degree 3: 2/2 exact [ok]",
        "  d preserves J at degree 4: 2/2 exact [ok]",
        "  d preserves J at degree 5: 2/2 exact [ok]",
    )),
    ("lemma", 1): (471, "3fc7b8b79a91cc41", (
        "Lemma batteries over H^1 (seed 3, 2 cases per check)",
        "  commutation closed form, degree 0 < n: 2/2 exact [ok]",
        "  commutation closed form, middle degree: 2/2 exact [ok]",
        "  commutation closed form, degree 2 > n: 2/2 exact [ok]",
        "  Lefschetz commutator closed form (theta-free): 2/2 exact [ok]",
        "  Lefschetz commutator vanishes on theta ^ beta: 2/2 exact [ok]",
        "  middle commutator lands in J (theta-free branch): 2/2 exact [ok]",
        "  middle commutator lands in J (theta ^ beta branch): 2/2 exact [ok]",
        "  two-piece middle form matches the defect: 2/2 exact [ok]",
    )),
    ("lemma", 2): (1176, "4366580c8df88989", (
        "Lemma batteries over H^2 (seed 3, 2 cases per check)",
        "  commutation closed form, degree 0 < n: 2/2 exact [ok]",
        "  commutation closed form, degree 1 < n: 2/2 exact [ok]",
        "  commutation closed form, middle degree: 2/2 exact [ok]",
        "  commutation closed form, degree 3 > n: 2/2 exact [ok]",
        "  commutation closed form, degree 4 > n: 2/2 exact [ok]",
        "  Lefschetz commutator closed form (theta-free): 2/2 exact [ok]",
        "  Lefschetz commutator vanishes on theta ^ beta: 2/2 exact [ok]",
        "  middle commutator lands in J (theta-free branch): 2/2 exact [ok]",
        "  middle commutator lands in J (theta ^ beta branch): 2/2 exact [ok]",
        "  two-piece middle form matches the defect: 2/2 exact [ok]",
    )),
}


def _recording_random(draws: list):
    class Recording(random.Random):
        """A Random that logs the integer draws; randint(a, b) is randrange(a, b + 1)."""

        def randrange(self, *args):
            value = super().randrange(*args)
            draws.append(value)
            return value

        def randint(self, a, b):
            return self.randrange(a, b + 1)

    return Recording


@pytest.mark.parametrize("kind, n", sorted(PINNED))
def test_battery_case_stream_is_pinned(monkeypatch, kind, n):
    draws = []
    monkeypatch.setattr(verify.random, "Random", _recording_random(draws))
    battery = getattr(verify, f"{kind}_battery")(n, SEED, COUNT)
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
    assert (len(draws), digest, tuple(battery.lines())) == PINNED[(kind, n)]
