"""Golden certificates: the CLI output, apart from timing, is pinned.

Each run goes through `cli.main` in-process, once per session, over the
session bundles (the same builds `cli.build_bundles` makes).  Its
certificate is made canonical (sorted keys, no `elapsed_ms`, no
`cache_dir`) and must equal the committed file under `golden/` and the
SHA-1 pinned here.  A change of output that is meant must update the file
and the pin together; the file then shows the change as a diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from d4fusion import cli

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "fusion-compare": ["fusion", "--action", "compare"],
    "fusion-O8p2": ["fusion", "--variant", "O8p2"],
    "fusion-O8p2x3": ["fusion", "--variant", "O8p2x3"],
    "fusion-PO8p3": ["fusion", "--variant", "PO8p3"],
    "fusion-PO8p3x3": ["fusion", "--variant", "PO8p3x3"],
    "verify-all": ["verify", "--lemma", "all"],
}

# SHA-1 of each canonical certificate text
PINS = {
    "fusion-compare": "fed46a5d95fb5164413a23ad81b846728b3ada23",
    "fusion-O8p2": "ea9e3ae3245deab4410d328385be9374196bcea5",
    "fusion-O8p2x3": "2c8d96a44a50302b2cd44dab1fc28252f85fee28",
    "fusion-PO8p3": "4e4f9a13d3ae440127c9569e4da648ba84fc5b2b",
    "fusion-PO8p3x3": "f699d33508939e63dc6e220e964d57c8ad480f92",
    "verify-all": "eef5330d31d949409ea1310b282f87fb02debdef",
}

VOLATILE = {"elapsed_ms", "cache_dir"}


def canonical(doc) -> str:
    """The certificate as sorted-key JSON text without timing or cache path."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in VOLATILE}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return json.dumps(strip(doc), indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="session")
def golden_certificates(bundles, tmp_path_factory):
    cli._BUILDERS.update(bundles)
    out = {}
    for name, args in RUNS.items():
        cache = tmp_path_factory.mktemp(name)
        assert cli.main(args + ["--cache-dir", str(cache)]) == 0, name
        path = cache / ("certificate-%s.json" % args[0])
        out[name] = canonical(json.loads(path.read_text()))
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fusion_certificate_equals_its_golden_file_and_pin(golden_certificates, name):
    text = golden_certificates[name]
    assert text == (GOLDEN / ("%s.json" % name)).read_text()
    assert hashlib.sha1(text.encode()).hexdigest() == PINS[name]


def test_canonical_form_drops_only_timing_and_the_cache_path():
    doc = {"b": [{"elapsed_ms": 5, "x": 1}], "a": {"cache_dir": "/c", "q": 3}}
    assert json.loads(canonical(doc)) == {"a": {"q": 3}, "b": [{"x": 1}]}
    assert canonical(doc).index('"a"') < canonical(doc).index('"b"')
