"""reprolint — simulator-aware static analysis for the ECSSD reproduction.

The discrete-event simulator's value rests on bit-for-bit determinism (the
event kernel, :mod:`repro.serve.kernel`, pops events in strictly increasing
``(time, kind, seq)`` order, so runs reproduce exactly).  This package
mechanically enforces the bug classes that quietly break that promise:
wall-clock reads, unseeded RNG, float-equality on simulated time, unit-less
duration literals, late-binding closures in scheduled callbacks, hash-ordered
set iteration, and blanket exception handlers.  See DESIGN.md's "Determinism
contract" for the rule-by-rule rationale.

Every run also checks the package layering contract
(:mod:`repro.lint.layering`) over the import edges of the files it parsed.
The runtime half lives in :mod:`repro.lint.simsan` — a zero-overhead-when-
disabled sanitizer asserting the same contract on live event loops.

Usage::

    python -m repro.lint src/repro          # standalone
    python -m repro lint src/repro          # via the repro CLI
    REPRO_SIMSAN=1 repro serve ...          # runtime sanitizer
    # reprolint: disable=<rule>             # inline suppression

The package itself imports nothing: the simulator imports
:mod:`repro.lint.simsan`, and loading the static linter with it would slow
every simulator start.  Import the linter's names from their submodules
(:mod:`.engine`, :mod:`.rules`, :mod:`.layering`, ...).
"""
