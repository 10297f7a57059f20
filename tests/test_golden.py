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
from slpforge.compressors import compress
from slpforge.errors import SlpforgeError
from slpforge.io import dump_slp, parse_slp
from slpforge.semigroup import closure

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
    'S4/group-solvable': 'cefd17bb220097ab426e38621a348e8f2bb526a7ba265265fa9e6b3ab1041e38',
    'S4/group-solvable-bw': '63d97ba9a7fbbc9f8a8f07522a27d4aafd558fc61f0d5fe0cce08cfd674b19e2',
    'S4/group-bsz': '9315a6beddd73ab18ad608895f4768503776ea6f2d77b162e4573d55fb520b4d',
    'A4/group-solvable': '7a5300eb5f0d3c02613312a54be48c53fd32b0459c97c07dbea350352d7d05a7',
    'A4/group-solvable-bw': 'e758c49cfe6081626c75de49926a4bd592e98d47c89e06489596787d11d3d947',
    'A4/group-bsz': '83c3815995c8d91c2796a7eec6648fbc5e17122ab7699d131f70ad17618e8b71',
    'D8/group-solvable': '36225badbf1d84f00c8500679d4cd7831a82a20b74629dc3f024145046d1445c',
    'D8/group-solvable-bw': '2f010fdef0734a802a4c4a225a2efa8dd4ac72015f3c41dfa8695e4cff58bd98',
    'D8/group-bsz': '43333a7099e96269a6cafe8993a20b2b61393591945d2605b69c2c30b3b86e8e',
    'H3/group-solvable': '1a2d95da781a1fb5b62bf31e9bd361703c0be336d01c90a3560602d46e0edb60',
    'H3/group-solvable-bw': 'e9125bab48344ba97fa81b76f924964dc12bacc6ba65a2f7658419408fb75eaf',
    'H3/group-bsz': 'b36271f68ad32c02c3c21ddd08d77a70c781acf9390f862c693b4d1327addd90',
    'rb/auto': '84780f1e5539bdf9f8b327e045b3cc4bb9c9bc7d61cddbfd0565d09ceb85d8ca',
    'rb/normal-band': '6c6afd863862f5cba856419eeefe09e53726096952c3942d7e8976f7eaeb3791',
    'rb/general': '84780f1e5539bdf9f8b327e045b3cc4bb9c9bc7d61cddbfd0565d09ceb85d8ca',
    'rb/permutative': '84780f1e5539bdf9f8b327e045b3cc4bb9c9bc7d61cddbfd0565d09ceb85d8ca',
    'lrb-witness/auto': '6699585cfa65158c9462b50e3194b133a641bd6075c2b48dbd07bad4a1d9c04e',
    'lrb-witness/normal-band': 'effc8c65cad10f037be040d0ab3ee8cef7eb37e9a361b75373c19c42563fe585',
    'lrb-witness/general': '5b3e938abe9d2fa8d127f5384619123c4bc5d61b2ac050748112bbb71e68dc3a',
    'lrb-witness/permutative': '521abdc8fab8a7bfc448451299a6d218244e92be745fa8fa9c589bbca18f29d8',
    'rrb-witness/auto': '6699585cfa65158c9462b50e3194b133a641bd6075c2b48dbd07bad4a1d9c04e',
    'rrb-witness/normal-band': 'effc8c65cad10f037be040d0ab3ee8cef7eb37e9a361b75373c19c42563fe585',
    'rrb-witness/general': '5b3e938abe9d2fa8d127f5384619123c4bc5d61b2ac050748112bbb71e68dc3a',
    'rrb-witness/permutative': '521abdc8fab8a7bfc448451299a6d218244e92be745fa8fa9c589bbca18f29d8',
    't-witness/auto': 'd5ff6446bbf5dc04b87d6f98aa3b81943e3093a077fc1ff53809600bf0022647',
    't-witness/normal-band': '9d2e4e1aa87863d71cc1cb903385b37712164c6b71c0f02692ab203b396d45bb',
    't-witness/general': 'a674c7204b8e87058bb531a0af723ceca9af0a4c93683bf8e77b6cf3c18366e1',
    't-witness/permutative': 'd5ff6446bbf5dc04b87d6f98aa3b81943e3093a077fc1ff53809600bf0022647',
    'u-witness/auto': '711da96edca58df995aef1d5605a0fe3a60ed6141752307a8ffb51a6dd79e392',
    'u-witness/normal-band': 'ebd70d1461d447f87fd7835102d04d2f2ed621fab1d6c5b5488643bd841705dd',
    'u-witness/general': 'fc5e2fca7e705086840a9a6b0bf070c64af861f0a2a4c7faf4148923010e465e',
    'u-witness/permutative': '3ee1b0c20fe81336a7a7bd9da53fc705e996d1a0fa98e81ea530815a01b25a83',
    'semilattice/auto': '1002c2457b0118ec1001eae19dca7109c939a6c33bd2b08947ff140f3c131215',
    'semilattice/normal-band': '4751fd84bded85808f3163eae2dc9d7bb9f9b5c8f171d24e48029fa24c91851b',
    'semilattice/general': '38665cb0f4a020cfdbb2e417fa6d74fd15ef96a6a86565aac8d7b0e16aac19ba',
    'semilattice/permutative': '1002c2457b0118ec1001eae19dca7109c939a6c33bd2b08947ff140f3c131215',
    'power-witness/auto': '111f0e1623925307ce87289f1c4da449560d3e7b59e3ccd17616c7a4b3091ee2',
    'power-witness/normal-band': 'a75366ec07a1338340d0e9a6ce4a48c85bc7db78ac1ecc6fc9f825c43ac97b17',
    'power-witness/general': 'e7551c44b380de0197f3c58cb66d94c068498b0ed11034974955e16cdcf90e4b',
    'power-witness/permutative': '111f0e1623925307ce87289f1c4da449560d3e7b59e3ccd17616c7a4b3091ee2',
    'rb-x-cyclic/auto': '2b7baad9f4730c5a3087ebb24e3714064d26ab2749a8ea7359ce460581a63112',
    'rb-x-cyclic/normal-band': '03b6d072fca7a0ac6bc2d1daecd07ef0dedf7b0b936c7bad33148679e74f5206',
    'rb-x-cyclic/general': 'a47d07524379516425c081387d7046e8a752cc2aba3fe3292a43b55c92ef5f7b',
    'rb-x-cyclic/permutative': '2b7baad9f4730c5a3087ebb24e3714064d26ab2749a8ea7359ce460581a63112',
    'clifford-z4-z2/auto': '2be0a8af855eb102632d4ef6ffff410c7c74483c542c74471f9e20460a621064',
    'clifford-z4-z2/normal-band': 'db972549d7decf988fca5597e7e9cb7785010ac45e169f04faac12fe2e9c3131',
    'clifford-z4-z2/general': '34e854d7e63215828312698aac851d5d7f7cc29d074a491212fc470b1a79ba77',
    'clifford-z4-z2/permutative': '2be0a8af855eb102632d4ef6ffff410c7c74483c542c74471f9e20460a621064',
    'nilpotent-rb/auto': '5714acb916e6503e3c5c7b94f13115c00c1e412f821e433078b5c2ca13954cb4',
    'nilpotent-rb/normal-band': 'fe842c5985bccc4aeda0a1169a7f0c9d22ba773b7f023e659c398d90cda49115',
    'nilpotent-rb/general': '5242747e46ca38a14e2711cdb68f54fcc32452f098c42fa4ec7c686083439438',
    'nilpotent-rb/permutative': '5714acb916e6503e3c5c7b94f13115c00c1e412f821e433078b5c2ca13954cb4',
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


if __name__ == "__main__":
    for key, value in current().items():
        print(f"    {key!r}: {value!r},")
