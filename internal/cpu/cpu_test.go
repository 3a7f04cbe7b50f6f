package cpu

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "in-order preset", cfg: Config{FreqGHz: DefaultFreqGHz, BaseCPI: 1}},
		{name: "o3 preset", cfg: OutOfOrder()},
		{name: "zero value defaults", cfg: Config{}},
		{name: "negative freq", cfg: Config{FreqGHz: -1}, wantErr: true},
		{name: "negative cpi", cfg: Config{BaseCPI: -1}, wantErr: true},
		{name: "overlap one", cfg: Config{MLPOverlap: 1}, wantErr: true},
		{name: "overlap negative", cfg: Config{MLPOverlap: -0.1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestInOrderAccounting(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Retire(1000)
	c.StallMemory(250)
	if got := c.Cycles(); math.Abs(got-1250) > 1e-9 {
		t.Errorf("cycles = %v, want 1250", got)
	}
	if c.Instructions() != 1000 {
		t.Errorf("instructions = %d", c.Instructions())
	}
	if got := c.IPC(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("IPC = %v, want 0.8", got)
	}
}

func TestOutOfOrderHidesStalls(t *testing.T) {
	o3, _ := New(OutOfOrder())
	io, _ := New(Config{})
	for _, c := range []*Core{o3, io} {
		c.Retire(100)
		c.StallMemory(1000)
	}
	if o3.Cycles() >= io.Cycles() {
		t.Errorf("O3 cycles %v not below in-order %v", o3.Cycles(), io.Cycles())
	}
}

func TestSecondsAndZeroIPC(t *testing.T) {
	c, _ := New(Config{})
	if c.IPC() != 0 {
		t.Error("idle IPC should be 0")
	}
	c.Retire(3_000_000_000)
	if got := c.Seconds(); math.Abs(got-1) > 1e-9 {
		t.Errorf("3G instructions at 3GHz = %v s, want 1", got)
	}
	c.ResetStats()
	if c.Cycles() != 0 || c.Instructions() != 0 {
		t.Error("ResetStats left residue")
	}
}
