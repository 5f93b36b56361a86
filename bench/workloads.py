"""Seeded inputs of the three workloads.

A workload is a round of ``symadapt`` command lines, run again and again
in a seeded order.  The seed picks the state letters, the arrangement of
each configuration word, the ``--k`` of each ``eigenvalues`` command and
the order of the commands in every round.

Every round holds the same multiplicity patterns, so a run's throughput
does not depend on which commands the seed happened to draw.  The letter
relabelling keeps the alphabetical order of the states: the i-th letter of
a pattern is always the i-th smallest letter of the word, so the pattern
(4, 3, 1) gives words like ``kkkkqqqx``.  The orbit order and the order in
which default state operators are tried both follow the alphabet, and
giving the single state the first letter instead (``abbbcccc``) makes
the same orbit resolve up to 1.6 times faster (3.6 s against 5.7 s on a
2-core VM), which would turn the seed into a workload choice.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, prod

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# the words of cli_small, as multiplicity patterns: ab aab abc aabb abcd aabbc
CLI_PATTERNS = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 1, 1, 1), (2, 2, 1))
CLI_FORMATS = ("text", "json", "csv")

# all multiplicities distinct: no state operator applies, the C(k) chain does the work
CHAIN_PATTERNS = ((3, 2, 1), (4, 2, 1), (5, 2, 1), (4, 3, 1))

# equal multiplicities: chain, state-operator lifting and the exact checks all run.
# (2, 1, 1, 1, 1) is left out: its 360-ket verify alone takes 11 s, so a
# run of 40 s would hold only two or three rounds.
LIFT_PATTERNS = ((1, 1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1))

NAMES = ("cli_small", "chain_repeated", "lift_verify")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kets: int  # orbit size of the configuration


@dataclass(frozen=True)
class Plan:
    """One workload under one seed."""

    name: str
    in_process: bool
    warmup: Command
    round: tuple[Command, ...]
    rng: random.Random

    def next_round(self) -> list[Command]:
        """The round's commands in a fresh seeded order."""
        order = list(self.round)
        self.rng.shuffle(order)
        return order


def word_for(pattern: tuple[int, ...], rng: random.Random) -> str:
    letters = sorted(rng.sample(LETTERS, len(pattern)))
    word = [letter for letter, mult in zip(letters, pattern) for _ in range(mult)]
    rng.shuffle(word)
    return "".join(word)


def orbit_size(pattern: tuple[int, ...]) -> int:
    return factorial(sum(pattern)) // prod(factorial(m) for m in pattern)


def _command(argv: list[str], pattern: tuple[int, ...]) -> Command:
    return Command(tuple(argv), orbit_size(pattern))


def plan(name: str, seed: int) -> Plan:
    rng = random.Random(seed)
    if name == "cli_small":
        cmds = []
        for pattern in CLI_PATTERNS:
            word = word_for(pattern, rng)
            for fmt in CLI_FORMATS:
                cmds.append(_command(["basis", "--config", word, "--format", fmt], pattern))
            cmds.append(_command(["verify", "--config", word], pattern))
            k = str(rng.randint(2, len(word)))
            cmds.append(_command(["eigenvalues", "--config", word, "--k", k], pattern))
        warm = CLI_PATTERNS[0]
        return Plan(name, False, _command(["basis", "--config", word_for(warm, rng)], warm),
                    tuple(cmds), rng)
    if name == "chain_repeated":
        cmds = [
            _command(["basis", "--config", word_for(p, rng), "--format", "json"], p)
            for p in CHAIN_PATTERNS
        ]
        warm = CHAIN_PATTERNS[0]
        return Plan(name, True, _command(
            ["basis", "--config", word_for(warm, rng), "--format", "json"], warm), tuple(cmds), rng)
    if name == "lift_verify":
        cmds = [
            _command(["verify", "--config", word_for(p, rng), "--format", "json"], p)
            for p in LIFT_PATTERNS
        ]
        warm = LIFT_PATTERNS[0]
        return Plan(name, True, _command(
            ["verify", "--config", word_for(warm, rng), "--format", "json"], warm), tuple(cmds), rng)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
