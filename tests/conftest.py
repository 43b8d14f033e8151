import contextlib
import functools
import io
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from coloredsym import cli, identities, symfun
from memos import clear_memos

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def verify_all():
    """One default ``verify --identity all``, run from cleared memos for
    the tests that read it: its exit code, its stdout, the
    objects ``cli._emit`` wrote and the blocks of every ``_schur_terms``
    build.  Every patch is undone and the memos cleared once it is done."""
    built, emitted, out = [], [], io.StringIO()
    build, emit = symfun._schur_terms.__wrapped__, cli._emit

    def counted(blocks):
        built.append(blocks)
        return build(blocks)

    def recorded(obj, *args):
        emitted.append(obj)
        emit(obj, *args)

    memo = functools.lru_cache(maxsize=symfun.SCHUR_MEMO_SIZE)(counted)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in (symfun, identities):
            monkeypatch.setattr(module, "_schur_terms", memo)
        monkeypatch.setattr(cli, "_emit", recorded)
        clear_memos()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--identity", "all"])
    clear_memos()
    return SimpleNamespace(code=code, out=out.getvalue(), emitted=emitted, built=built)
