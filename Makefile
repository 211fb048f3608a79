.PHONY: all build test bench examples doc fmt fmt-check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Reformat the tree in place (requires ocamlformat, see .ocamlformat).
fmt:
	dune build @fmt --auto-promote

# Fail when any file is not formatted; what CI runs.
fmt-check:
	dune build @fmt

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bin/ftsched_cli.exe -- campaign --figure 1 --graphs 10 --seed 2008

examples:
	dune exec examples/quickstart.exe
	dune exec examples/pipeline_stencil.exe
	dune exec examples/fault_campaign.exe
	dune exec examples/contention_study.exe
	dune exec examples/sparse_topology.exe
	dune exec examples/workflow_import.exe

clean:
	dune clean
