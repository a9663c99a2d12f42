package event

import (
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/value"
)

// printerIDL is the §6.2.1 print-server interface.
const printerIDL = `
interface Printer {
    int Print(string file);      // submit a job
    void Cancel(int jobno);
    event Finished(int jobno);
    event Stalled(int jobno, string reason);
}
`

func TestParseIDL(t *testing.T) {
	d, err := ParseIDL(printerIDL)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "Printer" {
		t.Fatalf("name = %q", d.Name)
	}
	if len(d.Ops) != 2 || len(d.Events) != 2 {
		t.Fatalf("ops=%d events=%d", len(d.Ops), len(d.Events))
	}
	if d.Ops[0].Name != "Print" || d.Ops[0].Result.Kind != value.KindInt ||
		d.Ops[0].Params[0].Name != "file" || d.Ops[0].Params[0].Type.Kind != value.KindString {
		t.Fatalf("op = %+v", d.Ops[0])
	}
	if d.Ops[1].Result.Kind != 0 {
		t.Fatalf("void result = %+v", d.Ops[1].Result)
	}
	ev, ok := d.Event("Stalled")
	if !ok || len(ev.Params) != 2 || ev.Params[1].Name != "reason" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestParseIDLErrors(t *testing.T) {
	bad := []string{
		``,
		`interface {`,
		`interface P { int Print( }`,
		`interface P { event E(int) ; }`,      // missing param name
		`interface P { int Print(string f) }`, // missing semicolon
		`iface P {}`,
	}
	for _, src := range bad {
		if _, err := ParseIDL(src); err == nil {
			t.Errorf("ParseIDL(%q) succeeded", src)
		}
	}
}

func TestConstructorDestructorRoundTrip(t *testing.T) {
	d := MustParseIDL(printerIDL)
	mk, err := d.Constructor("Finished")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mk(value.Int(27))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name != "Printer.Finished" {
		t.Fatalf("name = %q", ev.Name)
	}
	un, err := d.Destructor("Finished")
	if err != nil {
		t.Fatal(err)
	}
	args, err := un(ev)
	if err != nil || !args[0].Equal(value.Int(27)) {
		t.Fatalf("destructed = %v, %v", args, err)
	}
}

func TestConstructorTypeChecks(t *testing.T) {
	d := MustParseIDL(printerIDL)
	mk, _ := d.Constructor("Finished")
	if _, err := mk(value.Str("27")); err == nil {
		t.Fatal("wrong argument type accepted")
	}
	if _, err := mk(); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := d.Constructor("Nothing"); err == nil {
		t.Fatal("unknown event constructor")
	}
}

func TestDestructorRejectsWrongType(t *testing.T) {
	d := MustParseIDL(printerIDL)
	un, _ := d.Destructor("Finished")
	if _, err := un(New("Printer.Stalled", value.Int(1), value.Str("jam"))); err == nil {
		t.Fatal("destructor accepted a different event type")
	}
	if _, err := un(New("Printer.Finished")); err == nil {
		t.Fatal("destructor accepted wrong arity")
	}
	if _, err := d.Destructor("Nothing"); err == nil {
		t.Fatal("unknown event destructor")
	}
}

func TestPrintServerLifecycle(t *testing.T) {
	// E13 / figure 6.1 with IDL-generated pieces: submit a job, register
	// for its completion using a template built from the interface,
	// signal via the constructor, decode via the destructor.
	d := MustParseIDL(printerIDL)
	clk := clock.NewVirtual(time.Unix(0, 0))
	broker := NewBroker("P", clk, BrokerOptions{})

	recv := NewReceiver(nil)
	sess, err := broker.OpenSession(recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobno := int64(27) // returned by the Print RPC in the figure
	tmpl, err := d.Template("Finished", Lit(value.Int(jobno)))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := broker.Register(sess, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	var doneJob int64 = -1
	un, _ := d.Destructor("Finished")
	recv.HandleFrom("P", reg, func(e Event) {
		args, err := un(e)
		if err != nil {
			t.Errorf("destructor: %v", err)
			return
		}
		doneJob = args[0].I
	})

	mk, _ := d.Constructor("Finished")
	other, _ := mk(value.Int(99))
	broker.Signal(other) // someone else's job: filtered by the template
	if doneJob != -1 {
		t.Fatal("notified of another job")
	}
	mine, _ := mk(value.Int(jobno))
	broker.Signal(mine)
	if doneJob != jobno {
		t.Fatalf("doneJob = %d", doneJob)
	}
}

func TestTemplateArityChecked(t *testing.T) {
	d := MustParseIDL(printerIDL)
	if _, err := d.Template("Finished", Wildcard(), Wildcard()); err == nil {
		t.Fatal("wrong template arity accepted")
	}
	if _, err := d.Template("Nothing"); err == nil {
		t.Fatal("unknown event template accepted")
	}
}
