"""Pinned output bytes.

Each case family hashes, in a fixed order, the ``.slp`` text that
``compress`` emits for every case, or the error class name when a case
raises.  A refactor that must not change programs has to keep every digest;
a change that alters programs on purpose re-pins the families it touches and
says so.  ``python tests/test_golden.py`` (with ``src`` on the path) prints
the current digests in the form of ``PINNED``.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from slpforge import zoo
from slpforge.compressors import STRATEGIES, compress
from slpforge.errors import SlpforgeError
from slpforge.io import dump_slp, parse_slp
from slpforge.semigroup import closure
from slpforge.slp import compact

from conftest import random_semigroups

GROUP_STRATEGIES = ("group-solvable", "group-solvable-bw", "group-bsz")
BAND_STRATEGIES = ("auto", "normal-band", "general", "permutative")
FAMILIES = {
    "rb": [3, 4],
    "lrb-witness": [4],
    "rrb-witness": [4],
    "t-witness": [4],
    "u-witness": [4],
    "semilattice": [4],
    "power-witness": [3, 3],
    "rb-x-cyclic": [2, 3, 4],
    "clifford-z4-z2": [],
    "nilpotent-rb": [2, 2, 3, 3],
}
# H3, the Heisenberg group mod 3, is the one with a level of two generators
# (G/G' = Z3 x Z3) whose normal forms take exponents >= 2
GROUPS = {
    "S4": ("sym", [4]),
    "A4": ("alt", [4]),
    "D8": ("dihedral", [4]),
    "H3": ("heisenberg", [3]),
}

PINNED = {
    'S4/group-solvable': '6054e93ac47f6a5e49fc2eda5ed616ccb16c5386a55331fffc23a981c4c8beb0',
    'S4/group-solvable-bw': '4d633c63a116f9217d08f9a311af534b40a65ec66909d5f7a63fce8a40e4d759',
    'S4/group-bsz': 'ed432f5e7e94b7c9d9474e7a806a9ec168d0b415a6c52b47b24f3172d02f6969',
    'A4/group-solvable': '58f15b2fd4a5455e128255a5010e5def3a726ca0a53b898b051cec3b9523bcc6',
    'A4/group-solvable-bw': '21446bb53c940cb4c48e9043cdb653cdb81ef32ac53d6d0ff1e6b5291182fb1e',
    'A4/group-bsz': '17e083b00e390cc6a9f4d3978f7890d415508e9e3bd7be829ad470d857818122',
    'D8/group-solvable': '9b2ed7a1cc20f974ce25e538df804aab15e052dcfdea3cf9d7f9b6fcfb14ed82',
    'D8/group-solvable-bw': '8f06b517b310975e4584aeeec3e8f764538b8b7f1abe34d5d3c0fe60c102e940',
    'D8/group-bsz': 'dbb1e7ea980674ec7ca1475e7f8abd47b8b277a160f4ff7acbf1db4fd4ecb19b',
    'H3/group-solvable': '46e344f138540ccf44c5bc7a7582959a1bd4193e0f68d56024ec0efe113762cb',
    'H3/group-solvable-bw': 'bf0ea52afb79ae146fdaa50501be51f1e657eea67ef50b403df2e45b706fb76d',
    'H3/group-bsz': '57ce1f1fec7a95513aa6fd58fa9f026f4a167ac11f5e10480f2f9e3264e08998',
    'rb/auto': '84780f1e5539bdf9f8b327e045b3cc4bb9c9bc7d61cddbfd0565d09ceb85d8ca',
    'rb/normal-band': 'f1eb66f27d94f609c5092b4f0dd40fd712094b69d125d2b04ede44b2b6bf90dd',
    'rb/general': '84780f1e5539bdf9f8b327e045b3cc4bb9c9bc7d61cddbfd0565d09ceb85d8ca',
    'rb/permutative': '84780f1e5539bdf9f8b327e045b3cc4bb9c9bc7d61cddbfd0565d09ceb85d8ca',
    'lrb-witness/auto': '6699585cfa65158c9462b50e3194b133a641bd6075c2b48dbd07bad4a1d9c04e',
    'lrb-witness/normal-band': 'effc8c65cad10f037be040d0ab3ee8cef7eb37e9a361b75373c19c42563fe585',
    'lrb-witness/general': 'd3206a734609709e557926f4a281fae05dbc64b03e9b45ec56459bc6a79afa6d',
    'lrb-witness/permutative': '521abdc8fab8a7bfc448451299a6d218244e92be745fa8fa9c589bbca18f29d8',
    'rrb-witness/auto': '6699585cfa65158c9462b50e3194b133a641bd6075c2b48dbd07bad4a1d9c04e',
    'rrb-witness/normal-band': 'effc8c65cad10f037be040d0ab3ee8cef7eb37e9a361b75373c19c42563fe585',
    'rrb-witness/general': 'd3206a734609709e557926f4a281fae05dbc64b03e9b45ec56459bc6a79afa6d',
    'rrb-witness/permutative': '521abdc8fab8a7bfc448451299a6d218244e92be745fa8fa9c589bbca18f29d8',
    't-witness/auto': 'd5ff6446bbf5dc04b87d6f98aa3b81943e3093a077fc1ff53809600bf0022647',
    't-witness/normal-band': '9d2e4e1aa87863d71cc1cb903385b37712164c6b71c0f02692ab203b396d45bb',
    't-witness/general': 'e9d449ff66e9a338e69b34a4500fbdb0156214af95231d360f27a9e44a692c69',
    't-witness/permutative': 'd5ff6446bbf5dc04b87d6f98aa3b81943e3093a077fc1ff53809600bf0022647',
    'u-witness/auto': '711da96edca58df995aef1d5605a0fe3a60ed6141752307a8ffb51a6dd79e392',
    'u-witness/normal-band': 'ebd70d1461d447f87fd7835102d04d2f2ed621fab1d6c5b5488643bd841705dd',
    'u-witness/general': '688f097352a603384785a19eee56872dc972a54fedb28e7c4edfae24281718bf',
    'u-witness/permutative': '3ee1b0c20fe81336a7a7bd9da53fc705e996d1a0fa98e81ea530815a01b25a83',
    'semilattice/auto': '1002c2457b0118ec1001eae19dca7109c939a6c33bd2b08947ff140f3c131215',
    'semilattice/normal-band': '0855defb26bf45b909306e71a6799af65a6fad73b3331c0d898b077ff81aeeeb',
    'semilattice/general': 'f66b2c5420f0ba3250262855ec0598a16fe50c617b8498bb89cfe21326769302',
    'semilattice/permutative': '1002c2457b0118ec1001eae19dca7109c939a6c33bd2b08947ff140f3c131215',
    'power-witness/auto': '111f0e1623925307ce87289f1c4da449560d3e7b59e3ccd17616c7a4b3091ee2',
    'power-witness/normal-band': '1cde27874cdd00935401b0c6892bdf8027386663e6cc3a5d300d7c20033455b5',
    'power-witness/general': 'b6a208f2a0e92dc34d60d5769f3a4c3651e647d41698c2419f5e054f0418b16f',
    'power-witness/permutative': '111f0e1623925307ce87289f1c4da449560d3e7b59e3ccd17616c7a4b3091ee2',
    'rb-x-cyclic/auto': '5062acfdb75ebfc2273ef0d733af3a57b590ba469506ac1bf55a4fc2d31f0e15',
    'rb-x-cyclic/normal-band': 'd2ef485a4b43f539c9b208004af6ba619eda1c29340229e3cfc702bb8c3cadf2',
    'rb-x-cyclic/general': '319ffe69464d1ac7762585bf49f8cabdd9981bfef2c82d4818c4598ddd6c907d',
    'rb-x-cyclic/permutative': '5062acfdb75ebfc2273ef0d733af3a57b590ba469506ac1bf55a4fc2d31f0e15',
    'clifford-z4-z2/auto': '2be0a8af855eb102632d4ef6ffff410c7c74483c542c74471f9e20460a621064',
    'clifford-z4-z2/normal-band': 'a8e55029534efdb5fac63c91d19b85660da21ccf59f7b4b19ac34e670671d0fd',
    'clifford-z4-z2/general': '7a81fd27c81eed5cb30466f9d21c208574b29b7bb33a0333bfca215b3146b62f',
    'clifford-z4-z2/permutative': '2be0a8af855eb102632d4ef6ffff410c7c74483c542c74471f9e20460a621064',
    'nilpotent-rb/auto': '8ec8db8a0fb852cacd23774a451e043a14f8e6299a444059ed862249ff614909',
    'nilpotent-rb/normal-band': 'fe842c5985bccc4aeda0a1169a7f0c9d22ba773b7f023e659c398d90cda49115',
    'nilpotent-rb/general': '031a45719b3b2567c85dea2467e7e6cb65f29e62c5c344db7d498059d5b7566e',
    'nilpotent-rb/permutative': '8ec8db8a0fb852cacd23774a451e043a14f8e6299a444059ed862249ff614909',
    'random/auto': '0ef51e9807495d4546ba310bdbc634d8a935d23da7d8994e9700523eb79ffd05',
}


def _outcome(S, gens, t, strategy) -> str:
    try:
        prog = compress(S, gens, t, strategy).slp
    except SlpforgeError as exc:
        return type(exc).__name__
    text = dump_slp(prog)
    assert parse_slp(text) == prog  # every program reads back as itself
    return text


def _digest(outcomes) -> str:
    h = hashlib.sha256()
    for text in outcomes:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _generating_pairs(S):
    for a, b in itertools.permutations(range(S.n), 2):
        if closure(S, [a, b]).cardinality == S.n:
            yield [a, b]


def group_digest(name: str, strategy: str) -> str:
    """Every ordered generating pair; every eighth element as a target,
    starting at an offset set by the pair."""
    family, params = GROUPS[name]
    S = zoo.make_group(family, params)
    return _digest(
        _outcome(S, gens, t, strategy)
        for gens in _generating_pairs(S)
        for t in range(sum(gens) % 8, S.n, 8)
    )


def family_digest(family: str, strategy: str) -> str:
    """Every element of the family's table as a target, over its generators."""
    S, gens, _ = zoo.build_family(family, FAMILIES[family])
    return _digest(_outcome(S, gens, t, strategy) for t in range(S.n))


def random_digest() -> str:
    """20 random transformation semigroups under ``auto``, three generators."""
    return _digest(
        _outcome(S, sorted({0, 1 % S.n, 2 % S.n}), t, "auto")
        for S in random_semigroups(20, seed=0)
        for t in range(S.n)
    )


def current() -> dict[str, str]:
    out = {}
    for name in GROUPS:
        for strategy in GROUP_STRATEGIES:
            out[f"{name}/{strategy}"] = group_digest(name, strategy)
    for family in FAMILIES:
        for strategy in BAND_STRATEGIES:
            out[f"{family}/{strategy}"] = family_digest(family, strategy)
    out["random/auto"] = random_digest()
    return out


@pytest.mark.parametrize(
    "name,strategy", list(itertools.product(GROUPS, GROUP_STRATEGIES))
)
def test_group_programs_pinned(name, strategy):
    assert group_digest(name, strategy) == PINNED[f"{name}/{strategy}"]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_programs_pinned(family):
    for strategy in BAND_STRATEGIES:
        assert family_digest(family, strategy) == PINNED[f"{family}/{strategy}"], strategy


def test_random_programs_pinned():
    assert random_digest() == PINNED["random/auto"]


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_returned_programs_are_compact(strategy):
    # every family above over its generators, and every group above over
    # its first generating pair; every element as a target
    cases = [zoo.build_family(family, params)[:2] for family, params in FAMILIES.items()]
    for family, params in GROUPS.values():
        S = zoo.make_group(family, params)
        cases.append((S, next(_generating_pairs(S))))
    for S, gens in cases:
        for t in range(S.n):
            try:
                prog = compress(S, gens, t, strategy).slp
            except SlpforgeError:
                continue
            assert compact(prog) == prog, (S.name, t)


if __name__ == "__main__":
    for key, value in current().items():
        print(f"    {key!r}: {value!r},")
