"""``repro-lint``: AST-based invariant checker for reproduction contracts.

Run it as ``repro-lint`` (console script) or
``python -m repro.devtools.lint``.  The rules:

========  =================  ====================================================
Code      Name               Contract
========  =================  ====================================================
RPR001    determinism        no wall-clock reads / global-state randomness
RPR002    float-equality     no ``==``/``!=`` between float-valued expressions
RPR003    unit-suffixes      quantity names carry ``_s``/``_tokens``/``_rps``/...
RPR004    spec-round-trip    every ``*Spec`` field survives to_dict/from_dict;
                             example specs resolve their registry keys
RPR005    clock-discipline   clock state written only in run/reset/advance*
========  =================  ====================================================

Suppress a finding with ``# repro-lint: disable=RPR001`` on its line (add
a reason after the codes), or file-wide with
``# repro-lint: disable-file=RPR001``.
"""
