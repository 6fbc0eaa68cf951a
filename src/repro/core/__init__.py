"""PIMphony core: the feature configuration, DCS scheduling and DPA placement.

TCP vs HFP attention is priced in :mod:`repro.system.layers`.
"""
