"""Objective evaluation: SI-SDR, STOI, and batch reports."""
