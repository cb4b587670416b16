package flipbit_test

import (
	"fmt"
	"sync"
	"sync/atomic"

	flipbit "github.com/flipbit-sim/flipbit"
)

// The basic write path: configure the approximatable region, width and
// threshold, then write and read through the device.
func Example() {
	dev, err := flipbit.NewDevice(flipbit.DefaultSpec())
	if err != nil {
		panic(err)
	}
	_ = dev.SetApproxRegion(0, 4096)
	_ = dev.SetWidth(flipbit.W8)
	dev.SetThreshold(2)

	data := []byte{10, 20, 30, 40}
	_ = dev.Write(0, data)
	buf := make([]byte, 4)
	_ = dev.Read(0, buf)
	fmt.Println(buf)
	// Output: [10 20 30 40]
}

// The paper's worked example (Fig. 4 / Fig. 5): approximating exact = 0011
// over previous = 0101 with the 1-bit and 2-bit algorithms.
func ExampleNewNBitEncoder() {
	oneBit := flipbit.NewOneBitEncoder()
	twoBit, _ := flipbit.NewNBitEncoder(2)
	optimal := flipbit.NewOptimalEncoder()

	const previous, exact = 0b0101, 0b0011
	fmt.Printf("1-bit:   %04b\n", oneBit.Approximate(previous, exact, flipbit.W8))
	fmt.Printf("2-bit:   %04b\n", twoBit.Approximate(previous, exact, flipbit.W8))
	fmt.Printf("optimal: %04b\n", optimal.Approximate(previous, exact, flipbit.W8))
	// Output:
	// 1-bit:   0001
	// 2-bit:   0100
	// optimal: 0100
}

// Approximate writes never need an erase: rewriting a page with a bitwise
// subset of its contents costs programs only.
func ExampleDevice_Write() {
	dev, _ := flipbit.NewDevice(flipbit.DefaultSpec())
	_ = dev.SetApproxRegion(0, 256)
	_ = dev.SetWidth(flipbit.W8)
	dev.SetThreshold(4)

	first := make([]byte, 256)
	for i := range first {
		first[i] = 0xF0
	}
	_ = dev.Write(0, first)
	second := make([]byte, 256)
	for i := range second {
		second[i] = 0x70 // subset of 0xF0: reachable via programs
	}
	_ = dev.Write(0, second)
	fmt.Println("erases:", dev.Flash().Stats().Erases)
	// Output: erases: 0
}

// Banks, concurrency and the observer bus: Spec.Banks partitions the array
// into independently locked banks, Device is safe for concurrent use, and
// every observer sees every flash operation.
func ExampleNewDevice_banks() {
	spec := flipbit.DefaultSpec()
	spec.Banks = 8
	var ledger flipbit.Ledger // energy accounting, per op kind
	var erases atomic.Int64
	dev, err := flipbit.NewDevice(spec,
		flipbit.WithObserver(flipbit.NewLedgerObserver(&ledger)),
		flipbit.WithObserver(flipbit.ObserverFunc(func(ev flipbit.OpEvent) {
			if ev.Kind == flipbit.OpErase {
				erases.Add(1)
			}
		})))
	if err != nil {
		panic(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // concurrent writers, 16 pages each
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, 4096)
			for _, v := range []byte{0x0F, 0xF0} { // 0x0F → 0xF0 needs an erase
				for i := range data {
					data[i] = v
				}
				if err := dev.Write(w*4096, data); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Println("banks:", dev.Flash().Banks())
	fmt.Println("erases:", erases.Load(), dev.Flash().Stats().Erases)
	fmt.Println("energy metered:", ledger.Total() > 0)
	// Output:
	// banks: 8
	// erases: 64 64
	// energy metered: true
}
