"""The system benchmark of the GraphZeppelin reproduction (see ``run.py``)."""
