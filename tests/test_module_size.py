import pathlib
import tokenize

import pytest

import resonance_atlas

# CPython 3.11's compile of a module peaks about 0.47 MB higher once the
# module has 8194 tokens or more; a process that writes no .pyc pays it on
# every start.
TOKEN_LIMIT = 8192
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_MODULES = sorted(pathlib.Path(resonance_atlas.__file__).parent.glob("*.py"))


def _token_count(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in _SKIPPED)


def test_every_module_is_found():
    assert {p.name for p in _MODULES} >= {"cli.py", "spectra.py", "stratification.py"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_stays_below_the_token_limit(path):
    """Each module of the package has fewer than TOKEN_LIMIT tokens,
    counted without comments, blank lines and the encoding token."""
    assert _token_count(path) < TOKEN_LIMIT
