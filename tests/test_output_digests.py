"""Byte-identity of the lattice and classification outputs.

The DOT files and JSON reports are a contract: element numbering, lattice
order and every byte must survive refactors of the code behind them.  The
digests below were recorded before the normal lattice was built in bulk
(one closure per cyclic subgroup, joins deduplicated in coset space, [G, N]
from the principals); a change that moves any byte fails here.
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
