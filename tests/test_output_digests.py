"""Byte-identity of the lattice and classification outputs.

The DOT files and JSON reports are a contract: element numbering, lattice
order and every byte must survive refactors of the code behind them.  The
lattice and classification digests below were recorded before the normal
lattice was built in bulk (one closure per cyclic subgroup, joins
deduplicated in coset space, [G, N] from the principals), and the perm
digests before the element lookup was built on first use and the S(X)
centralizer oracle worked by propagation; a change that moves any byte
fails here.
"""

import hashlib

import pytest

from topolab.cli import main

LATTICE_DOT = {
    "C2 x C2 x C2 x C2 x C2 x C2": "1f97fabc8a780ff26a34c5a32e593f2b7799f34e8444aa40940d2025650400db",
    "C2 x C2 x C2 x C2 x C2": "feca3cc6878947c5d3f1b2f5d75fe39cccacd13701881fc45435374cfecf4a02",
    "C2 x C2 x C2 x C4": "7a3482974056f0205762c11ffe9387100dd80d130f950b13bee5f272d53e476d",
    "C4 x C4 x C2": "9a428054855f72be399cfb52992fa257805cae551ed3b32b58fb946a08ecab1c",
    "Q8 x D8": "e1a44fdfe338e5ba4320e01dccc4863a40091c832aec12cca8a79cc38789c9d1",
}

CLASSIFY_JSON = {
    "C2 x C2 x C2 x C2 x C2 x C2": "563094808127e5ec3f7b1e10322ca558f317b1de1347c90a9e4e3b77e50fb67a",
    "C2 x C2 x C2 x C2 x C2": "fce28db4db2a166df20b3e422a9292a444c735ab84e5c08d4649fb4fbcdb4563",
    "C2 x C2 x C2 x C4": "6d56e05895cafc93fb65d27a13005dade3db5037ef827c6493151e01c0bfb101",
    "C4 x C4 x C2": "4ff90252cdee39da5b3731687ec298dda9871feca67163da3bfbd2da6e657157",
    "Q8 x D8": "d617f3d5089f76afea128a93839cfeb8c09de28a037220d7ccd1e388da3aadf7",
    "D2000": "8473d566a91d66a4597927acf9bd772a45e3041641c0200dfb07dbd780865c3a",
    "C4000": "392b76ffe48c18b1004de0ac012318b905ecf5e89dc7e0b17eaee0ac9b9fff95",
    "Heis(7) x C2": "b5d5ef6e08a145d74b6239f0242276d3b02267f98c6c5a67881825b2d6397f00",
}

# non-abelian groups of order above 128, whose normal closures, [G, N] and
# quotient centres read one element per conjugacy class; recorded while
# those were still computed one element at a time
CLASSIFY_JSON_BY_CLASS = {
    "S7": "c1a0bfb04795e44dd701f89077a7781ebe419215583791a4b39587000f64b74b",
    "SL(2,17)": "9c8ff8a24adafe19ff4fe56078d2497701520744cf3256b05b7e003be99ba997",
    "ASL(3,2)": "fc68fc1dadb413c60c943351233e696f35217c07f8620c53a9abad2585fb99a6",
    "A5 x C7": "6d17677c92509f06efb887a1d376eca0a294788fe33a2f9b4d48eb6ce5519acd",
}

# `perm --check-lemma --oracle` on degree-8 actions: S8, A8 and PGL(2,7) on
# the projective line over F_7 (point 7 is infinity), the regular C8 and Q8,
# the octagon's dihedral group (condition (a) fails), S3 on two orbits
# (condition (b) fails), and one transposition (centralizer order 1440)
PERM_STDOUT = {
    "S8": (8, "(0 1 2 3 4 5 6 7),(0 1)", "e675f608cdf1c2433ba51a341cb31f5dc47cab6dc1ef2e7c1365c9f550b21d8b"),
    "A8": (8, "(0 1 2),(1 2 3 4 5 6 7)", "b0bbbe369e193a8ddb6e711731f188ef48f60326d21db2b5ecfe16bcaa33bbe0"),
    "PGL(2,7)": (
        8,
        "(0 1 2 3 4 5 6),(1 3 2 6 4 5),(0 7)(1 6)(2 3)(4 5)",
        "204cdae97ac7fa6ac9f5cb1db6a00b77009931f9b5e23ff966cf209cfa1b6d34",
    ),
    "C8 regular": (8, "(0 1 2 3 4 5 6 7)", "c9a8c479ec94274c77ebe80f0f2f53032eb5e15e08bef078aa8c4ce1c7f20538"),
    "Q8 regular": (
        8,
        "(0 1 4 5)(2 3 6 7),(0 2 4 6)(1 7 5 3)",
        "60c749793dfb8f49efdcb9dde5f62ba3dd0042a3904c78a2a1c9ef1384f20322",
    ),
    "D16 (a fails)": (
        8,
        "(0 1 2 3 4 5 6 7),(1 7)(2 6)(3 5)",
        "58c37e7cca2be195c9cc1795356bde87dd31a08af4d2f960bd939f42cfcfddb4",
    ),
    "S3 twice (b fails)": (
        6,
        "(0 1 2)(3 4 5),(0 1)(3 4)",
        "0dd1c5ed583724f70e85fdc6f7949ba429d7d73fff10f7ad58df2be47e8d55fa",
    ),
    "transposition": (8, "(0 1)", "8b21b93e285bc92d09eaa458f968e08729b0625bae5d979da60eef96a6032ffd"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec", sorted(LATTICE_DOT))
def test_lattice_dot_bytes_are_unchanged(spec, tmp_path, capsys):
    out = tmp_path / "lattice.dot"
    assert main(["lattice", spec, "--dot", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == LATTICE_DOT[spec]


@pytest.mark.parametrize("spec", sorted(CLASSIFY_JSON))
def test_classify_json_bytes_are_unchanged(spec, capsys):
    assert main(["classify", spec, "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CLASSIFY_JSON[spec]


@pytest.mark.parametrize("spec", sorted(CLASSIFY_JSON_BY_CLASS))
def test_classify_json_bytes_of_large_nonabelian_groups_are_unchanged(spec, capsys):
    assert main(["classify", spec, "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CLASSIFY_JSON_BY_CLASS[spec]


@pytest.mark.parametrize("name", sorted(PERM_STDOUT))
def test_perm_stdout_bytes_are_unchanged(name, capsys):
    degree, gens, digest = PERM_STDOUT[name]
    assert main(["perm", "--degree", str(degree), "--gens", gens, "--check-lemma", "--oracle"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest


# wide elementary abelian lattices, recorded while the lattice search still
# formed the join of every member with every principal it lacked
CLASSIFY_JSON_WIDE = {
    "C3 x C3 x C3 x C3 x C3": "59f6d1df192705b72f0cd3d35a897372693fd485d78bf2d571e859225b5b4118",
    "C5 x C5 x C5 x C5": "68a273e40f1a62fc7b571d67f5c28f9c81ef7200aa06a3654d4500e59213e8b9",
    "C7 x C7 x C7 x C7": "11ba881e44ef9843ffa51f0aed2fbe0093f8085ffb2e17fe43cfbd8c021d74e4",
}

LATTICE_DOT_WIDE = {
    "C3 x C3 x C3 x C3 x C3": "981a0b790c34798c6318c4c12edfc6990d96b186e7835c459bc16720bba5a7d7",
}


@pytest.mark.parametrize("spec", sorted(CLASSIFY_JSON_WIDE))
def test_classify_json_bytes_of_wide_lattices_are_unchanged(spec, capsys):
    assert main(["classify", spec, "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CLASSIFY_JSON_WIDE[spec]


@pytest.mark.parametrize("spec", sorted(LATTICE_DOT_WIDE))
def test_lattice_dot_bytes_of_wide_lattices_are_unchanged(spec, tmp_path, capsys):
    out = tmp_path / "lattice.dot"
    assert main(["lattice", spec, "--dot", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == LATTICE_DOT_WIDE[spec]
