"""The benchmark's tracer against the program it patches.

perfbench/tracer.py wraps latrot's functions and methods by name from
outside the program, so a rename or deletion in src/ breaks the traced
benchmark run (`--trace 1`) without failing any other test.  This
installs a Tracer, checks that every name it patched now holds a wrapper
of the original, and that uninstall puts every original back.
"""

from perfbench.tracer import Tracer


def test_tracer_installs_and_restores_every_patched_name():
    tracer = Tracer().install()
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, name, original in patched:
            wrapper = owner.__dict__[name]
            assert wrapper is not original, (owner, name)
    finally:
        tracer.uninstall()
    assert not tracer._undo
    # a name patched twice (census.discrete_rotate) goes back to the value
    # it had before the first patch
    before = {}
    for owner, name, original in patched:
        before.setdefault((owner, name), original)
    for (owner, name), original in before.items():
        assert owner.__dict__[name] is original, (owner, name)
    # installed again after a clean uninstall
    Tracer().install().uninstall()
