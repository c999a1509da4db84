"""Closed-loop benchmark for the overdet toolkit (see run.py)."""
