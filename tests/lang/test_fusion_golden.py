"""Golden fusion output: the pass's rewrites only change when a PR means them to.

Each row pins, for one program compiled with ``fusion=True``, the
ordered rewrite list ``(kind, line, detail, rounds)`` and the sha256 of
the generated Python.  The programs: ``tests.lang.skil_corpus()`` (the
``apps.skil_sources`` programs, ``examples/skil/*.skil``, fuzz seeds
0–3, one program per ``check.fusionprog`` family), every family at
seeds 0–2, the fuzzer at twelve more seeds, and the nested-fold
programs of ``test_fusion_pass``.

Synthesized kernels are named ``__fused_<n>`` from a per-program
counter; both sides are compared after renumbering them in order of
first appearance, so the table pins the program, not how many
candidate kernels the pass tried and threw away.

A refactor of ``repro.lang.fusion`` leaves this table untouched.  A PR
that *intends* to change what the pass emits regenerates it and says
why, row by row::

    PYTHONPATH=src python tests/lang/test_fusion_golden.py
"""

import hashlib
import random
import re

import pytest

from repro.check.fusionprog import FAMILIES
from repro.check.fuzz import generate_spec, render
from repro.lang import compile_skil
from tests.lang import skil_corpus
from tests.lang.test_fusion_pass import (
    NESTED_FOLD_CAPTURE_SRC,
    NESTED_FOLD_PLAIN_SRC,
    NESTED_FOLD_SOURCE_SRC,
)

FUZZ_SEEDS = (5, 11, 17, 23, 42, 64, 99, 128, 256, 512, 777, 1024)


def _corpus() -> dict[str, str]:
    progs = dict(skil_corpus())
    for seed in range(3):
        for family in FAMILIES:
            fp = family(random.Random(seed))
            progs[f"{fp.family}/seed{seed}"] = fp.source
    for seed in FUZZ_SEEDS:
        progs[f"fuzz/seed{seed}"] = render(generate_spec(seed))
    progs["nested_fold/capture"] = NESTED_FOLD_CAPTURE_SRC
    progs["nested_fold/source"] = NESTED_FOLD_SOURCE_SRC
    progs["nested_fold/plain"] = NESTED_FOLD_PLAIN_SRC
    return progs


def _renumber(text: str) -> str:
    """``__fused_<n>`` renumbered 1, 2, ... in order of first appearance."""
    seen: dict[str, str] = {}
    return re.sub(
        r"__fused_(\d+)",
        lambda m: "__fused_" + seen.setdefault(m.group(1), str(len(seen) + 1)),
        text,
    )


def _row(source: str) -> tuple[tuple, str]:
    mod = compile_skil(source, fusion=True)
    rewrites = tuple(
        (r.kind, r.line, _renumber(r.detail), r.rounds)
        for r in mod.fusion_report.rewrites
    )
    digest = hashlib.sha256(_renumber(mod.python_source).encode()).hexdigest()
    return rewrites, digest


CORPUS = _corpus()

#: generated at commit d9ca6ac, except the rows marked below
GOLDEN: dict[str, tuple[tuple, str]] = {
    'GAUSS_SKIL': ((), 'a0f678484776e522782e298968909f3da1141eb0bac95492572e1f82b0af583c'),
    'MATMUL_SKIL': ((), '6708be4b2d71de31e85dade275b1158c2f060bc7c5dad4a31fefe701a3f5989f'),
    'SAXPY_SCAN_SKIL': ((('uninit', 15, "init of 'z' is dead -> array_create_uninit", 1), ('uninit', 16, "init of 's' is dead -> array_create_uninit", 1)), 'b1ba78e560f709e8727080eab83fa4774e53ba85484b635794324155929a7573'),
    'SHPATHS_SKIL': ((('square', 17, "copy+gen_mult over 'b' -> array_gen_mult_square", 1), ('dead-array', 12, "'b' is only created/destroyed — removed", 2)), '8edb9757dab5f3343b87679fbd96b04c17583a1bffbb65a4c4800d53538db5b1'),
    'THRESHOLD_SKIL': ((('uninit', 14, "init of 'B' is dead -> array_create_uninit", 1),), '311b2386f1dee60638dc965c1cf4bf83cce360e155ce47625f341056c5bce1fa'),
    'connectivity.skil': ((('square', 22, "copy+gen_mult over 'b' -> array_gen_mult_square", 1), ('dead-array', 17, "'b' is only created/destroyed — removed", 2)), '41ac323b138e7048289f24029fe611a2ac69c5ca9d53f1708404d683e8e0a669'),
    'stats.skil': ((('uninit', 22, "init of 'zs' is dead -> array_create_uninit", 1),), '48561523390dd69d804944269f32ef8c0d29c5dd313eadd42821ffd0cf650b24'),
    'fuzz0': ((('fuse:map.map', 18, "mapk1_1∘mapk0_1 eliminates 'c0' (3 rounds)", 3), ('fuse:create.map', 15, "init0_1∘mapk0_1 eliminates 'a0' (1 rounds)", 1)), 'b3f6a1e9c688d465351aee3dbf37401df4a3ecfa21ae39e9546d324a6d58673e'),
    'fuzz1': ((('fuse:map.map', 17, "mapk0_1∘mapk0_1 eliminates 'c0' (3 rounds)", 3), ('uninit', 12, "init of 'a2' is dead -> array_create_uninit", 1)), 'f17fa3d2c7849f3f03ae3d09b2a259db5666cc870bd85bb03f0ec88a5ea45cc0'),
    'fuzz2': ((('fuse:map.map', 22, "mapk1_1∘mapk1_1 eliminates 'c0' (3 rounds)", 3), ('fuse:map.map', 26, "mapk0_1∘mapk1_1 eliminates 'c1' (3 rounds)", 3), ('uninit', 14, "init of 'a0' is dead -> array_create_uninit", 1), ('uninit', 16, "init of 'a2' is dead -> array_create_uninit", 1)), '7a13b8d2c04300e522c816738d8a432a522c2ec7e3e9890f578a65c446065595'),
    'fuzz3': ((), 'e4671f0322597835bb84bd0eec1fdf3ba724b655e6fe0d056e0b23b94498cbe8'),
    'family0': ((('fuse:map.map', 13, "f0_1∘f1_1 eliminates 't0' (3 rounds)", 3), ('fuse:map.map', 14, "__fused_1∘f2_1 eliminates 't1' (3 rounds)", 3), ('fuse:create.map', 14, "ramp_1∘__fused_1 eliminates 'a' (2 rounds)", 2)), 'fbc3f608dc611ef9f0cf7d1a710f5e633a4981a15a815c3e32341927e3325930'),
    'family1': ((('fuse:map.zip', 15, "m1_1∘zk_1 eliminates 't' (3 rounds)", 3), ('fuse:zip.map', 17, "__fused_1∘m2_1 eliminates 'z' (3 rounds)", 3), ('uninit', 13, "init of 'out' is dead -> array_create_uninit", 1)), 'e3931a70630e5041cabc340846e6c813780a6f8311bd2aeb3d0853e7eadd21e1'),
    'family2': ((('fuse:map.fold', 11, "mk_1∘cv_1 eliminates 't' (3 rounds)", 3),), 'e1afab06f118af3d109061683f6f5cec6f4e171eb56e83e3f0752866ce2267fe'),
    'family3': ((('fuse:create.map', 9, "gen_1∘mk_1 eliminates 't' (2 rounds)", 2),), '134cb8d293f2020a0df3c9798b7b2acef9acf982670b56591ef0fbdaf2cfae5d'),
    'family4': ((('discover:zip', 9, "element loop over 'out' -> array_zip", 0), ('uninit', 8, "init of 'out' is dead -> array_create_uninit", 1)), '2588b6ab44693057a83a12e59747c1bc2168a6f1079b0d7650d116ea8d8c20a9'),
    'family5': ((('discover:fold', 8, "reduction loop over 'a' -> array_fold(max)", 0),), 'f7d3cc520c2a25fc775b8097129d8030cd1aabe7ec31d6b4f6c9a03e3b8cbee7'),
    'family6': ((('square', 13, "copy+gen_mult over 'b' -> array_gen_mult_square", 1), ('dead-array', 9, "'b' is only created/destroyed — removed", 2)), '34903e913febaa59bf02a5244b0c8c23a996e2504bd977e88f693acc808d910e'),
    'map_map/seed0': ((('fuse:map.map', 13, "f0_1∘f1_1 eliminates 't0' (3 rounds)", 3), ('fuse:map.map', 14, "__fused_1∘f2_1 eliminates 't1' (3 rounds)", 3), ('fuse:create.map', 14, "ramp_1∘__fused_1 eliminates 'a' (2 rounds)", 2)), 'fbc3f608dc611ef9f0cf7d1a710f5e633a4981a15a815c3e32341927e3325930'),
    'zip_mix/seed0': ((('fuse:map.zip', 15, "m1_1∘zk_1 eliminates 't' (3 rounds)", 3), ('fuse:zip.map', 17, "__fused_1∘m2_1 eliminates 'z' (3 rounds)", 3), ('uninit', 13, "init of 'out' is dead -> array_create_uninit", 1)), '04f01889fe9ae06b7f3cb33fbdfe5534a5ad76aefc6c797a3cbe5c1f77a4de72'),
    'map_fold/seed0': ((('fuse:map.fold', 11, "mk_1∘cv_1 eliminates 't' (3 rounds)", 3),), 'b48ad22dd45e5fa43428fad85418c401817b60802cf069d6e08f14434eb6afdb'),
    'create_map/seed0': ((('fuse:create.map', 9, "gen_1∘mk_1 eliminates 't' (2 rounds)", 2),), '79fbfa2d9ed5554a4907b5f79dc60b752711c38411c2dd6a967ab6d4fa5ffd6c'),
    'discover_map/seed0': ((('discover:map', 8, "element loop over 'out' -> array_map", 0), ('fuse:create.map', 8, "ramp_1∘__fused_1 eliminates 'a' (2 rounds)", 2)), '4e1f9f06a1a05346390dca078bce238f3abc07d19b8f5246e51882a413ca5e5b'),
    'discover_fold/seed0': ((('discover:fold', 8, "reduction loop over 'a' -> array_fold(min)", 0),), '087b1f654ca79f8bc37f1609fd5ec432721af21a752720b6e5c26e837c88c901'),
    'square/seed0': ((('square', 13, "copy+gen_mult over 'b' -> array_gen_mult_square", 1), ('dead-array', 9, "'b' is only created/destroyed — removed", 2)), 'e6c988f2935e3942f0f278d54f18d6383dafc1024d9560399691248045324e33'),
    'map_map/seed1': ((('fuse:map.map', 11, "f0_1∘f1_1 eliminates 't0' (3 rounds)", 3), ('fuse:create.map', 11, "ramp_1∘__fused_1 eliminates 'a' (2 rounds)", 2)), 'ea95eca52ceefe9bccc7ead9d9befb0cf5ed97d1be5de4bf0a32cfaba6a62719'),
    'zip_mix/seed1': ((('fuse:map.zip', 15, "m1_1∘zk_1 eliminates 't' (3 rounds)", 3), ('fuse:zip.map', 17, "__fused_1∘m2_1 eliminates 'z' (3 rounds)", 3), ('uninit', 13, "init of 'out' is dead -> array_create_uninit", 1)), 'e3931a70630e5041cabc340846e6c813780a6f8311bd2aeb3d0853e7eadd21e1'),
    'map_fold/seed1': ((('fuse:map.fold', 11, "mk_1∘cv_1 eliminates 't' (3 rounds)", 3),), '8b41801e5ab69c068bb4cfafaaeea95d1239e6b93b02fb6a86b07d1dfa927a82'),
    'create_map/seed1': ((('fuse:create.map', 9, "gen_1∘mk_1 eliminates 't' (2 rounds)", 2),), '999e0853964151b2ec3d4a7fb5046de4cf29292271ae87d94cf0a3cb61b1462f'),
    'discover_map/seed1': ((('discover:zip', 9, "element loop over 'out' -> array_zip", 0), ('uninit', 8, "init of 'out' is dead -> array_create_uninit", 1)), '8fa1c904045fb1491140a5cfdd5832fe6a1936254735d9cf49bdc9d299ace2db'),
    'discover_fold/seed1': ((('discover:fold', 8, "reduction loop over 'a' -> array_fold(+)", 0),), 'db2fe4de28338e47deb71981d32a57eef5e04caf32daeb93b79c9fd732b99bf7'),
    'square/seed1': ((('square', 13, "copy+gen_mult over 'b' -> array_gen_mult_square", 1), ('dead-array', 9, "'b' is only created/destroyed — removed", 2)), '8b3336d6590265bc69b1f805d88830a4cfbd7824290926e91da58eca83b675aa'),
    'map_map/seed2': ((('fuse:map.map', 11, "f0_1∘f1_1 eliminates 't0' (3 rounds)", 3), ('fuse:create.map', 11, "ramp_1∘__fused_1 eliminates 'a' (2 rounds)", 2)), '9be54623576ac74772fbc39c72c91ebd34a4d854a583d7feb244c66306a555fa'),
    'zip_mix/seed2': ((('fuse:map.zip', 15, "m1_1∘zk_1 eliminates 't' (3 rounds)", 3), ('fuse:zip.map', 17, "__fused_1∘m2_1 eliminates 'z' (3 rounds)", 3), ('uninit', 13, "init of 'out' is dead -> array_create_uninit", 1)), '232e6663b9ae2b95757537cf809f6efeffb9ad12d216b2cbc9ae87c17114b8cc'),
    'map_fold/seed2': ((('fuse:map.fold', 11, "mk_1∘cv_1 eliminates 't' (3 rounds)", 3),), 'e1afab06f118af3d109061683f6f5cec6f4e171eb56e83e3f0752866ce2267fe'),
    'create_map/seed2': ((('fuse:create.map', 9, "gen_1∘mk_1 eliminates 't' (2 rounds)", 2),), 'c0b691ad53ed6bbf72a164623cb2210640a15b30e3b92d4db3ce66bc041ea0f2'),
    'discover_map/seed2': ((('discover:map', 8, "element loop over 'out' -> array_map", 0), ('fuse:create.map', 8, "ramp_1∘__fused_1 eliminates 'a' (2 rounds)", 2)), '99285fcfbdaf0f1906409c3119c5ad257fde033ece6efe91f3330727cae6df7c'),
    'discover_fold/seed2': ((('discover:fold', 8, "reduction loop over 'a' -> array_fold(min)", 0),), 'e370ec15c83e6a680265d52ff8599276b414a255780556098645bc84d1cac083'),
    'square/seed2': ((('square', 13, "copy+gen_mult over 'b' -> array_gen_mult_square", 1), ('dead-array', 9, "'b' is only created/destroyed — removed", 2)), '3689bdd05517e8233eebcdac8df241b4436e97ac4af3bdcfebb0698acc24ee61'),
    'fuzz/seed5': ((), 'e3a822facd312a2d6f2f774a9e55c614331dfca30b1c67a2c5ac94573473b2ad'),
    'fuzz/seed11': ((('fuse:map.map', 21, "mapk1_1∘mapk0_1 eliminates 'c0' (3 rounds)", 3), ('fuse:create.map', 21, "init3_1∘__fused_1 eliminates 'a3' (1 rounds)", 1), ('uninit', 15, "init of 'a0' is dead -> array_create_uninit", 1)), '4f68971d5407b6e38940efb50a66cb89fe0f9f7d9d0262b899bb3fd6d8163988'),
    'fuzz/seed17': ((), '5156e7ff2d8a8f763f434725871c03469a421fd057e31b2b4c58711f33352739'),
    'fuzz/seed23': ((('uninit', 12, "init of 'a0' is dead -> array_create_uninit", 1), ('uninit', 14, "init of 'a2' is dead -> array_create_uninit", 1)), 'ed57a8dfeb95bab11c427f4d0e7e530729879d342f4a3d0d9da28f14dcd5c167'),
    'fuzz/seed42': ((('fuse:map.map', 20, "mapk1_1∘mapk0_1 eliminates 'c0' (3 rounds)", 3), ('fuse:map.map', 24, "mapk1_1∘mapk0_1 eliminates 'c1' (3 rounds)", 3), ('uninit', 16, "init of 'a0' is dead -> array_create_uninit", 1)), '1d9608d5d73cc8895f7de9e95409d8033ad8acbf7ef624f173561472c22e7d92'),
    'fuzz/seed64': ((('uninit', 14, "init of 'a2' is dead -> array_create_uninit", 1),), '8df453f27cd0e537dfd0e0e3e8ebf016661916f90549b6368eeb562423b9ab57'),
    'fuzz/seed99': ((('fuse:map.map', 17, "mapk0_1∘mapk1_1 eliminates 'c0' (3 rounds)", 3), ('uninit', 14, "init of 'a1' is dead -> array_create_uninit", 1)), '642b35645abd3ed80846ac790ae8f1baeaab2e924aa65c61760f548fc474d911'),
    'fuzz/seed128': ((('uninit', 14, "init of 'a1' is dead -> array_create_uninit", 1),), 'af17e218a572e6e6117aae85fc222209c9740ec26ee59f453bb8a3324b655377'),
    'fuzz/seed256': ((('fuse:map.map', 20, "mapk0_1∘mapk0_1 eliminates 'c0' (3 rounds)", 3), ('uninit', 13, "init of 'a1' is dead -> array_create_uninit", 1)), 'af5e6d12f626e9b9dc6c7642a42f93a010e9226056a7e492f34a359e95225927'),
    'fuzz/seed512': ((('uninit', 13, "init of 'a2' is dead -> array_create_uninit", 1),), 'aa18659effbb8d529e86c26a892ac582baf3ebb328333e67c5e8b3ef0e4da7d6'),
    'fuzz/seed777': ((('uninit', 15, "init of 'a0' is dead -> array_create_uninit", 1),), 'fd6de0cb3356b1c0f9a006f85a5c8ca205a28ce325a70da4a9168d93eb0654c4'),
    'fuzz/seed1024': ((('fuse:map.fold', 17, "mapk1_1∘convk1_1 eliminates 'a3' (2 rounds)", 2),), 'dfdd9f9aae0077a3a95851df63f528dbfbbca0f06a549acbcbdc2de7caf8de09'),
    # changed at the table's introduction: the loop around the fold
    # reassigns the map's captured scalar, so the parent's fusion
    # computed 44640 where the program computes 6240
    'nested_fold/capture': ((('uninit', 11, "init of 't' is dead -> array_create_uninit", 1),), 'cad2286c475cf1bd72db5634389e05174b04e9f05fe947b0bf40bca64ede83c9'),
    # changed at the table's introduction: the loop around the fold
    # rewrites the map's source array, so the parent's fusion
    # computed 28416 where the program computes 6240
    'nested_fold/source': ((('uninit', 11, "init of 't' is dead -> array_create_uninit", 1),), 'e6d316c27203046982b2e62c2df54c166caa4c64b617335e765f850921e70e4d'),
    'nested_fold/plain': ((('fuse:map.fold', 17, "addc_1∘keep_1 eliminates 't' (3 rounds)", 3),), '0b016f90fff9f3b7ee7a1df7ba8ca196b955ea4e6e7a73b982c852ddf778cb45'),
}


@pytest.mark.parametrize("name", CORPUS)
def test_golden(name):
    assert _row(CORPUS[name]) == GOLDEN[name]


def test_table_covers_the_corpus():
    assert set(GOLDEN) == set(CORPUS)


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[tuple, str]] = {")
    for name, source in CORPUS.items():
        print(f"    {name!r}: {_row(source)!r},")
    print("}")
