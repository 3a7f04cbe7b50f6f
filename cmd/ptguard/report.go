package main

import (
	"flag"
	"fmt"
	"os"

	"ptguard/internal/core"
	"ptguard/internal/mac"
	"ptguard/internal/pte"
	"ptguard/internal/report"
)

// reportCmd prints the paper's static tables: the x86_64 and ARMv8 PTE
// layouts (Tables I, II), the baseline system configuration (Table III),
// the MAC-protected bit map (Table IV), and the SRAM/storage budget
// (§V-E).
func reportCmd(fs *flag.FlagSet) func() error {
	which := fs.String("table", "all", "table to print: pte, armv8, config, protected, storage, all")
	return func() error {
		printers := map[string]func() error{
			"pte":       tableI,
			"armv8":     tableII,
			"config":    tableIII,
			"protected": tableIV,
			"storage":   storage,
		}
		if *which == "all" {
			for _, name := range []string{"pte", "armv8", "config", "protected", "storage"} {
				if err := printers[name](); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}
		p, ok := printers[*which]
		if !ok {
			return fmt.Errorf("unknown table %q", *which)
		}
		return p()
	}
}

// twoColumn renders a static (bits, purpose)-style table.
func twoColumn(title, left, right string, rows [][2]string) error {
	t := report.New(title, left, right)
	for _, row := range rows {
		t.AddRow(row[0], row[1])
	}
	return t.Render(os.Stdout)
}

func tableI() error {
	return twoColumn("Table I — x86_64 page table entry", "bit(s)", "purpose", [][2]string{
		{"0", "Present"}, {"1", "Writable"}, {"2", "User Accessible"},
		{"3", "Write Through"}, {"4", "Cache Disable"}, {"5", "Accessed"},
		{"6", "Dirty"}, {"7", "2 MB Page"}, {"8", "Global"},
		{"11:9", "Usable by OS"}, {"51:12", "PFN"}, {"58:52", "Ignored"},
		{"62:59", "Memory Protection Keys"}, {"63", "No Execute"},
	})
}

func tableII() error {
	return twoColumn("Table II — ARMv8 page table entry", "bit(s)", "purpose", [][2]string{
		{"0", "Valid"}, {"1", "Block (HP)"}, {"5:2", "Memory Attributes"},
		{"7:6", "Access Permissions"}, {"9:8", "PFN[39:38]"}, {"10", "Accessed"},
		{"11", "Caching"}, {"49:12", "PFN[37:0]"}, {"50", "Reserved"},
		{"51", "Dirty"}, {"52", "Contiguous"}, {"54:53", "Execute-Never"},
		{"58:55", "Ignored"}, {"62:59", "Hardware Attributes"}, {"63", "Reserved"},
	})
}

func tableIII() error {
	return twoColumn("Table III — baseline system configuration", "component", "setting", [][2]string{
		{"Core", "In-order, 3 GHz, x86_64 ISA"},
		{"TLB", "64 entry, fully associative"},
		{"MMU cache", "8 KB, 4-way"},
		{"L1-I/D cache", "32 KB, 8-way"},
		{"L2 / L3 cache", "256 KB / 2 MB, 16-way"},
		{"DRAM", "4 GB DDR4"},
	})
}

func tableIV() error {
	f, err := pte.FormatX86(40)
	if err != nil {
		return err
	}
	t := report.New("Table IV — bits protected by the MAC (M = 40)", "bits", "description", "protected")
	for _, row := range [][3]string{
		{"8:0", "Flags", "yes (except accessed bit)"},
		{"11:9", "Programmable", "yes"},
		{"39:12", "PFN", "yes"},
		{"51:40", "MAC (1/8th portion)", "-"},
		{"58:52", "Identifier / ignored", "-"},
		{"63:59", "Prot. Keys / NX flag", "yes"},
	} {
		t.AddRow(row[0], row[1], row[2])
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("derived: %d protected bits/PTE, %d-bit MAC/line, %d-bit identifier/line\n",
		f.ProtectedBitsPerPTE(), f.MACBitsPerLine(), f.IdentifierBitsPerLine())
	return nil
}

func storage() error {
	format, err := pte.FormatX86(40)
	if err != nil {
		return err
	}
	key := make([]byte, mac.KeySize)
	base, err := core.NewGuard(core.Config{Format: format, Key: key})
	if err != nil {
		return err
	}
	opt, err := core.NewGuard(core.Config{
		Format: format, Key: key,
		OptIdentifier: true, Identifier: 1, OptZeroMAC: true,
	})
	if err != nil {
		return err
	}
	t := report.New("§V-E — storage budget", "design", "SRAM bytes", "DRAM overhead")
	t.AddRow("PT-Guard", report.I(base.SRAMBytes()), "0")
	t.AddRow("Optimized PT-Guard", report.I(opt.SRAMBytes()), "0")
	t.AddRow("conventional MAC region (§II-F)", "-", "12.5% of memory")
	return t.Render(os.Stdout)
}
