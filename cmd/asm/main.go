// Command asm is the two-way assembler for the NPU ISA (§3.4): it assembles the
// textual syntax that Program.Dump produces into 64-bit instruction words,
// and disassembles binary images back to text. It is the command-line face
// of internal/isa, useful for inspecting the kernels the compiler emits
// (ptsim -dump-kernels) or for hand-writing microbenchmark kernels.
//
// Usage:
//
//	asm [-d] [-o out] [file]
//
// Reads assembler text (default) or, with -d, a binary image; reads stdin
// when no file is given. Output goes to stdout or -o.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/isa"
)

func main() { cli.Main("asm", run) }

func run() error {
	disasm := flag.Bool("d", false, "disassemble a binary image instead of assembling text")
	out := flag.String("o", "", "output file (default stdout)")
	name := flag.String("name", "a.out", "program name recorded in the output")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	src, err := io.ReadAll(in)
	if err != nil {
		return err
	}

	var output []byte
	if *disasm {
		p, err := isa.DecodeProgram(*name, src)
		if err != nil {
			return fmt.Errorf("disassemble: %w", err)
		}
		output = []byte(p.Dump())
	} else {
		p, err := isa.Assemble(*name, string(src))
		if err != nil {
			return fmt.Errorf("assemble: %w", err)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("validate: %w", err)
		}
		output = isa.EncodeProgram(p)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = w.Write(output)
	return err
}
