"""Predefined DNN training workloads used in the paper's evaluation."""
