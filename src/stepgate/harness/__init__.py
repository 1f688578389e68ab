"""Experiment harness: configs, model bundles, training, evaluation, reports."""
