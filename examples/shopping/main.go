// Home shopping: a third-party interactive application built with the OCS
// recipe (§9.1), the way the Orlando trial's application developers worked.
// The shopping service keeps its slow-changing state (the catalog) and its
// durable state (orders) in the database service and runs primary/backup —
// a new primary recovers by re-reading the database (§9.4).  Settops
// download the shopping application through the RDS and place orders
// through a rebinding stub, so a service crash between orders is invisible.
//
//	go run ./examples/shopping
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"itv/internal/cluster"
	"itv/internal/core"
	"itv/internal/db"
	"itv/internal/orb"
	"itv/internal/wire"
)

// shopSkel is the shopping service skeleton (the §9.1 IDL would be:
// interface Shop { StringList catalog(); string order(in string item); }).
type shopSkel struct {
	store *db.Stub
}

func (s *shopSkel) TypeID() string { return "app.Shop" }

func (s *shopSkel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "catalog":
		items, err := s.store.Keys("catalog")
		if err != nil {
			return orb.Errf(orb.ExcUnavailable, "catalog: %v", err)
		}
		c.Results().PutStrings(items)
		return nil
	case "order":
		item := c.Args().String()
		price, ok, err := s.store.Get("catalog", item)
		if err != nil {
			return orb.Errf(orb.ExcUnavailable, "db: %v", err)
		}
		if !ok {
			return orb.Errf(orb.ExcNotFound, "no item %q", item)
		}
		// Durable order record keyed by customer (the authenticated
		// caller) and item; the database's log is the ledger.
		orderID := fmt.Sprintf("%s|%s", c.Caller().Host(), item)
		if err := s.store.Put("orders", orderID, price); err != nil {
			return orb.Errf(orb.ExcUnavailable, "db: %v", err)
		}
		c.Results().PutString(orderID)
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run deploys the shopping service on the Orlando cluster, places one order
// from a settop, crashes the service's primary and places a second order
// through the backup, writing the session's story to w.  It fails on any
// order the customer would see fail.
func run(w io.Writer) error {
	c := cluster.New(cluster.Orlando())
	fmt.Fprintln(w, "booting the Orlando cluster...")
	c.Start()
	defer c.Stop()

	// Stock the catalog in the database (slow-changing state, §9.4).
	c.Store.Put("catalog", "itv-tshirt", "$12")
	c.Store.Put("catalog", "cable-modem", "$99")
	c.Store.Put("catalog", "remote-control", "$15")

	// Deploy the shopping service primary/backup on two servers, exactly
	// as the system services do.
	dbRef := db.RefAt(c.Servers[0].Spec.Host)
	var eps [2]*orb.Endpoint
	var shops [2]*core.Elector
	for i := range shops {
		ep, err := orb.NewEndpoint(c.NW.Host(c.Servers[i].Spec.Host))
		if err != nil {
			return err
		}
		defer ep.Close()
		sess := core.NewSession(ep, c.Servers[0].NS().RootRef(), c.Clk)
		el := sess.NewElector("svc/shop", ep.Register("", &shopSkel{store: &db.Stub{Ep: ep, Ref: dbRef}}))
		el.RetryInterval = 2 * time.Second
		el.Start()
		defer el.Close()
		eps[i], shops[i] = ep, el
	}
	c.MustWaitFor("shop primary", func() bool { return shops[0].IsPrimary() || shops[1].IsPrimary() })
	fmt.Fprintln(w, "shopping service deployed (primary/backup, state in the database)")

	// A subscriber tunes to the shopping channel (Fig. 3 download path).
	st := c.NewSettop("5", 0)
	c.MustWaitFor("settop boot", func() bool { _, err := st.Boot(); return err == nil })
	cover, full, err := st.ChangeChannel("shopping")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tuned to shopping: cover %v, app in %v (simulated)\n", cover, full)

	shop := st.Session().Service("svc/shop")
	var items []string
	if err := shop.Invoke("catalog", nil,
		func(d *wire.Decoder) error { items = d.Strings(); return nil }); err != nil {
		return err
	}
	fmt.Fprintln(w, "catalog:", items)

	order := func(item string) error {
		var id string
		err := shop.Invoke("order",
			func(e *wire.Encoder) { e.PutString(item) },
			func(d *wire.Decoder) error { id = d.String(); return nil })
		if err != nil {
			return fmt.Errorf("order %s: %w", item, err)
		}
		fmt.Fprintf(w, "  ordered %s -> %s\n", item, id)
		return nil
	}
	if err := order("itv-tshirt"); err != nil {
		return err
	}

	// Crash the primary between orders: its process dies without unbinding,
	// the audit removes the dead binding (§4.7), the backup's bind retry
	// wins (its state is in the database), and the settop's stub rebinds.
	primary := 0
	if shops[1].IsPrimary() {
		primary = 1
	}
	fmt.Fprintln(w, "crashing the shopping primary mid-session...")
	shops[primary].Abandon()
	eps[primary].Close()
	c.MustWaitFor("backup primary", shops[1-primary].IsPrimary)
	if err := order("cable-modem"); err != nil {
		return err
	}

	fmt.Fprintln(w, "orders on record (from the database):")
	orders := c.Store.All("orders")
	ids := make([]string, 0, len(orders))
	for id := range orders {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  %s  %s\n", id, orders[id])
	}
	fmt.Fprintln(w, "done: two orders, one service crash, zero customer impact")
	return nil
}
