"""Each input is checked once, where it enters.  check_attributes runs in
the four scheme entry points (ecc_issue, ecc_verify, rsa_issue and
rsa_verify) and at the two boundaries that refuse bad attributes before
any scheme call: the issuer service, ahead of its timed region, and the
CLI.  The helpers those entry points call take the checked tuple as it is.
check_modulus runs where a key is loaded and where a modulus's tables are
built, never per request.  A failed read or write is an OSError, which
cli.main alone turns into exit 3: no package error type wraps one."""

import importlib
import inspect
from pathlib import Path

import pytest

from test_one_loop import callers

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abclab"

CALLERS = {
    "check_attributes": {"scheme.py:ecc_issue", "scheme.py:ecc_verify", "scheme.py:rsa_issue",
                         "scheme.py:rsa_verify", "wire.py:_handle_issue", "cli.py:_parse_attrs"},
    "check_modulus": {"scheme.py:check_rsa_key", "scheme.py:load_rsa_public"},
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
