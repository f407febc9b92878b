"""One module per subcommand: its body, report document and text renderer."""
