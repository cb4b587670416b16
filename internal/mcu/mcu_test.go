package mcu

import (
	"errors"
	"strings"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

func newSystem(t *testing.T) (*Bus, *CPU) {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.NumPages = 64
	dev := core.MustNewDevice(spec)
	bus := NewBus(4096, dev)
	cpu := NewCPU(bus, SRAMBase)
	return bus, cpu
}

// runSRAM assembles src at the SRAM base, loads and runs it.
func runSRAM(t *testing.T, src string) (*Bus, *CPU) {
	t.Helper()
	bus, cpu := newSystem(t)
	img, err := Assemble(src, SRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.LoadProgram(SRAMBase, img); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return bus, cpu
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Decoded{
		{Op: OpMovi, Rd: 3, Imm: -42},
		{Op: OpMovt, Rd: 15, Imm: 0x7FFF},
		{Op: OpAdd, Rd: 1, Rn: 2, Rm: 3},
		{Op: OpAddi, Rd: 4, Rn: 5, Imm: -100},
		{Op: OpB, Imm: -1000},
		{Op: OpBl, Imm: 123456},
		{Op: OpLdrb, Rd: 7, Rn: 8, Imm: 12},
	}
	for _, c := range cases {
		w := Encode(c.Op, c.Rd, c.Rn, c.Rm, c.Imm)
		got := Decode(w)
		if got != c {
			t.Errorf("round trip %+v → %+v", c, got)
		}
	}
}

func TestArithmetic(t *testing.T) {
	_, cpu := runSRAM(t, `
		movi r0, 6
		movi r1, 7
		mul  r2, r0, r1
		addi r2, r2, -2
		halt
	`)
	if cpu.R[2] != 40 {
		t.Errorf("r2 = %d, want 40", cpu.R[2])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 = 55.
	_, cpu := runSRAM(t, `
		movi r0, 0      ; sum
		movi r1, 1      ; i
	loop:
		add  r0, r0, r1
		addi r1, r1, 1
		cmpi r1, 10
		ble  loop
		halt
	`)
	if cpu.R[0] != 55 {
		t.Errorf("sum = %d, want 55", cpu.R[0])
	}
}

func TestFunctionCall(t *testing.T) {
	_, cpu := runSRAM(t, `
		movi r0, 5
		bl   double
		bl   double
		halt
	double:
		add  r0, r0, r0
		bx   lr
	`)
	if cpu.R[0] != 20 {
		t.Errorf("r0 = %d, want 20", cpu.R[0])
	}
}

func TestSRAMLoadStore(t *testing.T) {
	_, cpu := runSRAM(t, `
		li   r1, 0x10000800
		movi r0, 0x1234
		strh r0, [r1]
		ldrb r2, [r1]       ; low byte
		ldrb r3, [r1, 1]    ; high byte
		ldrh r4, [r1]
		halt
	`)
	if cpu.R[2] != 0x34 || cpu.R[3] != 0x12 || cpu.R[4] != 0x1234 {
		t.Errorf("r2=%#x r3=%#x r4=%#x", cpu.R[2], cpu.R[3], cpu.R[4])
	}
}

func TestConsoleOutput(t *testing.T) {
	bus, _ := runSRAM(t, `
		li   r1, 0x40000014
		movi r0, 72        ; 'H'
		str  r0, [r1]
		movi r0, 105       ; 'i'
		str  r0, [r1]
		halt
	`)
	if got := bus.Console.String(); got != "Hi" {
		t.Errorf("console = %q, want \"Hi\"", got)
	}
}

// TestXIPExecution: code runs directly from flash; fetches charge flash
// reads (the NOR XIP property of §II-C).
func TestXIPExecution(t *testing.T) {
	bus, cpu := newSystem(t)
	img, err := Assemble(`
		movi r0, 11
		movi r1, 31
		add  r2, r0, r1
		halt
	`, FlashBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.LoadProgram(FlashBase, img); err != nil {
		t.Fatal(err)
	}
	bus.Flash.ResetStats()
	cpu.PC = FlashBase
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[2] != 42 {
		t.Errorf("r2 = %d", cpu.R[2])
	}
	st := bus.FlashStats()
	if st.Reads < 16 { // 4 instructions × 4 bytes
		t.Errorf("XIP fetches charged only %d flash byte reads", st.Reads)
	}
	if st.Energy <= 0 {
		t.Error("XIP fetches charged no energy")
	}
}

// TestFlashWriteCombining: byte stores to one flash page must commit as a
// single page session at flush, not one session per byte.
func TestFlashWriteCombining(t *testing.T) {
	bus, cpu := newSystem(t)
	img, err := Assemble(`
		li   r1, 0x20000400   ; flash page 4
		movi r0, 0
		movi r2, 0x55
	loop:
		strb r2, [r1]
		addi r1, r1, 1
		addi r0, r0, 1
		cmpi r0, 64
		blt  loop
		li   r3, 0x40000010   ; MMIO flush
		str  r0, [r3]
		halt
	`, SRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.LoadProgram(SRAMBase, img); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(10_000); err != nil {
		t.Fatal(err)
	}
	// Verify data landed.
	got := make([]byte, 64)
	if err := bus.Flash.Read(0x400, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0x55 {
			t.Fatalf("flash byte %d = %#x, want 0x55", i, b)
		}
	}
}

// TestFlashReadObservesPendingWrites: loads from a page with pending
// combined writes see the buffered data.
func TestFlashReadObservesPendingWrites(t *testing.T) {
	_, cpu := func() (*Bus, *CPU) {
		bus, cpu := newSystem(t)
		img := MustAssemble(`
			li   r1, 0x20000100
			movi r0, 0x77
			strb r0, [r1]
			ldrb r2, [r1]      ; must read 0x77 from the buffer
			halt
		`, SRAMBase)
		if err := bus.LoadProgram(SRAMBase, img); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Run(1000); err != nil {
			t.Fatal(err)
		}
		return bus, cpu
	}()
	if cpu.R[2] != 0x77 {
		t.Errorf("r2 = %#x, want 0x77", cpu.R[2])
	}
}

// TestMMIOFlipBitRegisters: the program configures the approximatable
// region through MMIO, exactly as Listing 1's runtime does.
func TestMMIOFlipBitRegisters(t *testing.T) {
	bus, _ := runSRAM(t, `
		li   r1, 0x40000000
		movi r0, 0          ; approx start = 0
		str  r0, [r1, 0]
		li   r0, 0x200      ; approx end = 2 pages
		str  r0, [r1, 4]
		movi r0, 8          ; width
		str  r0, [r1, 8]
		li   r0, 0x20000    ; threshold 2.0 in Q16.16
		str  r0, [r1, 12]
		halt
	`)
	dev := bus.Flash
	if dev.ReadReg(core.RegApproxEnd) != 0x200 {
		t.Errorf("approx end = %#x", dev.ReadReg(core.RegApproxEnd))
	}
	if dev.Width() != 8 {
		t.Errorf("width = %v", dev.Width())
	}
	if thr := core.FixedToThreshold(dev.ReadReg(core.RegThreshold)); thr != 2.0 {
		t.Errorf("threshold = %v", thr)
	}
	if !dev.Approximatable(0) || !dev.Approximatable(1) || dev.Approximatable(2) {
		t.Error("approx region pages wrong")
	}
}

func TestCPUEnergyAccounting(t *testing.T) {
	_, cpu := runSRAM(t, `
		movi r0, 0
		movi r1, 0
	loop:
		addi r0, r0, 1
		cmpi r0, 100
		blt  loop
		halt
	`)
	if cpu.Cycles < 300 {
		t.Errorf("cycles = %d, expected a few hundred", cpu.Cycles)
	}
	if cpu.Energy() <= 0 {
		t.Error("no CPU energy accounted")
	}
}

func TestHaltFlushesPendingWrites(t *testing.T) {
	bus, _ := runSRAM(t, `
		li   r1, 0x20000000
		movi r0, 0x0F
		strb r0, [r1]
		halt
	`)
	var b [1]byte
	if err := bus.Flash.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x0F {
		t.Errorf("flash byte = %#x; halt did not flush", b[0])
	}
}

func TestBusFaults(t *testing.T) {
	bus, _ := newSystem(t)
	if _, err := bus.Load(0x9000_0000, 4); !errors.Is(err, ErrBusFault) {
		t.Error("unmapped load should fault")
	}
	if err := bus.Store(0x0000_0010, 1, 4); !errors.Is(err, ErrBusFault) {
		t.Error("unmapped store should fault")
	}
}

func TestRunawayDetection(t *testing.T) {
	bus, cpu := newSystem(t)
	img := MustAssemble("loop: b loop", SRAMBase)
	if err := bus.LoadProgram(SRAMBase, img); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(100); !errors.Is(err, ErrRunaway) {
		t.Errorf("infinite loop should hit the step budget, got %v", err)
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"bogus r1, r2",
		"movi r99, 1",
		"movi r0, 100000",
		"b nowhere",
		"ldr r0, r1",
		"x: halt\nx: halt",
	}
	for _, src := range bad {
		if _, err := Assemble(src, SRAMBase); err == nil {
			t.Errorf("assembling %q should fail", src)
		}
	}
}

func TestAssemblerData(t *testing.T) {
	img, err := Assemble(`
		b start
	data:
		.word 0xDEADBEEF
		.byte 1, 2, 3
	start:
		li   r1, data
		ldr  r0, [r1]
		halt
	`, SRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	bus, cpu := newSystem(t)
	if err := bus.LoadProgram(SRAMBase, img); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 0xDEADBEEF {
		t.Errorf("r0 = %#x", cpu.R[0])
	}
}

func TestHaltedCPUStaysHalted(t *testing.T) {
	_, cpu := runSRAM(t, "halt")
	if err := cpu.Step(); !errors.Is(err, ErrHalted) {
		t.Error("stepping a halted CPU should fail")
	}
}

func TestOpStringCoverage(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if strings.HasPrefix(op.String(), "op") {
			t.Errorf("op %d has no name", op)
		}
	}
}
