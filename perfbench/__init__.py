"""The repository's steady, layer-attributed benchmark (see ``run.py``)."""
