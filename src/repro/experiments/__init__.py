"""Evaluation-section harnesses (paper Tables 3-6 + Figure 7)."""
