"""Multi-node PIM system models; the serving engine lives in :mod:`repro.serving`."""
