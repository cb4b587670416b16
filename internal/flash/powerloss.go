package flash

import "errors"

// Power-loss fault injection. Flash operations are not atomic: a program
// interrupted by power loss leaves a byte with only some of its bits
// cleared, and an interrupted erase leaves a page with a mixture of erased
// and stale bytes. Embedded firmware must tolerate both (it is why
// checkpointing systems keep a previous-good copy). The general fault
// machinery lives in faults.go; this file keeps the power-loss tear
// mechanics and the original one-shot arming entry point.

// ErrPowerLoss is returned by the operation that was interrupted.
var ErrPowerLoss = errors.New("flash: power lost mid-operation")

// InjectPowerLoss arms a one-shot fault: after skip more successful
// state-changing operations (programs or erases), the next one is
// interrupted partway and returns ErrPowerLoss. The device remains usable
// afterwards, modelling a reboot. The arm state lives in the device's fault
// scope, so it stays coherent under concurrent traffic (which of the racing
// operations trips the fault is then scheduling-dependent, like a real
// brown-out).
func (d *Device) InjectPowerLoss(skip int) {
	d.ArmFault(Fault{Kind: FaultPowerLoss, After: skip})
}

// tearProgram applies a partial program: each bit the full program would
// have cleared clears with probability ~1/2. Called with bank b's lock held.
func (d *Device) tearProgram(b, addr int, v byte) {
	cur := d.array[addr]
	toClear := cur &^ v
	partial := toClear & d.banks[b].rng.Byte()
	d.array[addr] = cur &^ partial
}

// tearErase applies a partial erase: each byte of the page independently
// either reaches the erased state or keeps its old value. Called with bank
// b's lock held.
func (d *Device) tearErase(b, p int) {
	base := d.PageBase(p)
	rng := d.banks[b].rng
	for i := 0; i < d.spec.PageSize; i++ {
		if rng.Intn(2) == 0 {
			d.array[base+i] = 0xFF
		}
	}
}
