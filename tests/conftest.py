from types import SimpleNamespace

import pytest


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name, calls=None)`` records each call of ``owner.name`` in ``calls``.

    It returns ``calls``, a new list by default.  A call is appended, with
    its ``args`` and ``kwargs``, before it runs, so one that raises counts
    too; its ``result`` is set when it returns.
    """
    def install(owner, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(call := SimpleNamespace(args=args, kwargs=kwargs))
            call.result = real(*args, **kwargs)
            return call.result

        monkeypatch.setattr(owner, name, recorded)
        return calls
    return install
