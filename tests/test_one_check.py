"""Each input is checked once, where it enters.  check_attributes runs in
the four scheme entry points (ecc_issue, ecc_verify, rsa_issue and
rsa_verify) and at the two boundaries that refuse bad attributes before
any scheme call: the issuer service, ahead of its timed region, and the
CLI.  The helpers those entry points call take the checked tuple as it is.
Each scheme's public-key rule is stated once, in its loader: keygen and
the key check keep a key's public part through it, and a request reads
the kept state through it, a cache hit once the key is kept.  A failed
read or write is an OSError, which cli.main alone turns into exit 3: no
package error type wraps one."""

import importlib
import inspect
from pathlib import Path

import pytest

from test_one_loop import callers

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abclab"

CALLERS = {
    "check_attributes": {"scheme.py:ecc_issue", "scheme.py:ecc_verify", "scheme.py:rsa_issue",
                         "scheme.py:rsa_verify", "wire.py:_handle_issue", "cli.py:_parse_attrs"},
    # One door each: a key document is admitted by check_key alone, a public one by load_public.
    "check_key": {"wire.py:key_from_wire"},
    "load_public": {"wire.py:public_from_wire"},
    "load_ecc_public": {"scheme.py:ecc_keygen", "scheme.py:check_ecc_key",
                        "scheme.py:_challenge", "scheme.py:ecc_verify"},
    "load_rsa_public": {"scheme.py:check_rsa_key", "scheme.py:modexp_representative",
                        "scheme.py:rsa_verify"},
}


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_called_only_where_the_input_enters(name):
    found = callers(name)
    assert found, f"{name} is called nowhere"
    assert found <= CALLERS[name], f"{name} called from {sorted(found - CALLERS[name])}"


def test_no_package_error_is_an_os_error():
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"abclab.{path.stem}")
        classes.update((f"{path.name}:{name}", cls)
                       for name, cls in inspect.getmembers(module, inspect.isclass)
                       if cls.__module__ == module.__name__)
    assert "bench.py:MalformedRecords" in classes
    found = sorted(name for name, cls in classes.items() if issubclass(cls, OSError))
    assert not found, f"package classes that subclass OSError: {found}"
