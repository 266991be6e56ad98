"""Library side of the repository benchmark (see ``perfbench/run.py``)."""
