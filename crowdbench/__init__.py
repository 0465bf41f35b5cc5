"""End-to-end benchmark of the CrowdMap reproduction (see README.md)."""
