package main

// Input generation. Everything the servers receive is derived from the
// workload name and the seed alone: table scripts, query families, the
// patch stream and the what-if override stream. Sizes are constants of the
// benchmark; no size, name or branch depends on the seed's value, so two
// seeds exercise the same code paths on different data.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// rng is splitmix64: a tiny seeded generator whose output is pinned by this
// file, not by a library version, so a seed means the same inputs forever.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := sha256.Sum256([]byte(stream))
	var mix uint64
	for i := 0; i < 8; i++ {
		mix = mix<<8 | uint64(h[i])
	}
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ mix}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sizes of the generated data. sizesFull is what BENCHMARK.json freezes;
// sizesShort is the -short variant the manifest test uses.
type sizes struct {
	orders, custs, items, regions, guards int // Orders/Cust data set of the read workloads
	patchOrders, patchCusts               int // the same data set as the patch workloads load it
	coldFamily                            int // distinct cold_compile query texts
	zones, roomsPerZone, sensorsPerRoom   int // R/S sensor data set
	overrides                             int // distinct what-if request bodies
	patches                               int // pre-rendered patch scripts
}

var (
	sizesFull = sizes{
		orders: 2000, custs: 200, items: 40, regions: 8, guards: 64,
		patchOrders: 300, patchCusts: 30,
		coldFamily: 2048,
		zones:      8, roomsPerZone: 8, sensorsPerRoom: 6,
		overrides: 512,
		patches:   1 << 16,
	}
	sizesShort = sizes{
		orders: 400, custs: 40, items: 10, regions: 4, guards: 16,
		patchOrders: 200, patchCusts: 20,
		coldFamily: 256,
		zones:      4, roomsPerZone: 4, sensorsPerRoom: 4,
		overrides: 32,
		patches:   1 << 10,
	}
)

// table is one catalog table as the PUT body the server receives.
type table struct {
	name   string
	script string
}

// patchOp is one element of the patch stream: a 1-row PATCH body plus what
// the harness needs to predict the table afterwards.
type patchOp struct {
	body   string
	id     int  // row id the op upserts or deletes
	delete bool // delete of an earlier upsert
}

func custName(i int) string   { return fmt.Sprintf("c%03d", i) }
func itemName(i int) string   { return fmt.Sprintf("i%02d", i) }
func regionName(i int) string { return "r" + strconv.Itoa(i) }

// patchIDBase is the first id of patch-stream rows; generated Orders ids stay
// below it, so "$1 >= patchIDBase" selects exactly the live patch rows.
const patchIDBase = 9_000_000

// blocked returns n values in 0..period-1 such that every aligned block of
// period consecutive positions holds each value exactly once, in an order
// drawn from r. Any prefix or range of rows therefore holds each value the
// same number of times to within one, whatever the seed.
func (r *rng) blocked(n, period int) []int {
	out := make([]int, 0, n+period)
	for len(out) < n {
		out = append(out, r.perm(period)...)
	}
	return out[:n]
}

// genOrders builds Orders(id,cust,item) and Cust(cust,region). The shape is
// fixed and only the arrangement is drawn from the seed, so that two seeds
// cost the servers the same work on any query, range predicates included:
// in every block of 10 rows of either table exactly one is guarded by one of
// sz.guards shared Bernoulli variables, in every block of 25 Orders rows
// exactly one has a variable item cell over a three-item support, and every
// block of sz.custs (sz.items, sz.regions) rows holds every customer (item,
// region) once. usedGuards lists the guard variables that occur in Orders
// rows: a patch row may only reuse one of those (a distribution no row
// mentions does not survive a WAL snapshot, so a restarted leader would
// refuse the row's marginal).
func genOrders(seed int64, sz sizes) (tables []table, usedGuards []int) {
	r := newRNG(seed, "orders")
	var o, c strings.Builder
	fmt.Fprintf(&o, "table Orders arity 3\n")
	custOf, itemOf := r.blocked(sz.orders, sz.custs), r.blocked(sz.orders, sz.items)
	cellVar, guarded := r.blocked(sz.orders, 25), r.blocked(sz.orders, 10)
	guardOf := r.blocked(sz.orders, sz.guards)
	used := make([]bool, sz.guards)
	nCellVars, nGuarded := 0, 0
	for i := 0; i < sz.orders; i++ {
		item := "'" + itemName(itemOf[i]) + "'"
		if cellVar[i] == 0 {
			item = "x" + strconv.Itoa(nCellVars)
			nCellVars++
		}
		fmt.Fprintf(&o, "row %d, '%s', %s", 1000+i, custName(custOf[i]), item)
		if guarded[i] == 0 {
			g := guardOf[nGuarded]
			nGuarded++
			used[g] = true
			fmt.Fprintf(&o, " | g%d = 1", g)
		}
		o.WriteByte('\n')
	}
	// Every guard gets a distribution in both tables (a shared variable must
	// carry the same distribution wherever it occurs), used or not.
	var guards strings.Builder
	for g := 0; g < sz.guards; g++ {
		p := 50 + r.intn(45)
		fmt.Fprintf(&guards, "dist g%d = {0:0.%02d, 1:0.%02d}\n", g, 100-p, p)
	}
	o.WriteString(guards.String())
	for x := 0; x < nCellVars; x++ {
		support := r.perm(sz.items)
		fmt.Fprintf(&o, "dist x%d = {'%s':0.5, '%s':0.25, '%s':0.25}\n", x, itemName(support[0]), itemName(support[1]), itemName(support[2]))
	}

	fmt.Fprintf(&c, "table Cust arity 2\n")
	regionOf, custGuarded := r.blocked(sz.custs, sz.regions), r.blocked(sz.custs, 10)
	for i := 0; i < sz.custs; i++ {
		fmt.Fprintf(&c, "row '%s', '%s'", custName(i), regionName(regionOf[i]))
		if custGuarded[i] == 0 {
			fmt.Fprintf(&c, " | g%d = 1", r.intn(sz.guards))
		}
		c.WriteByte('\n')
	}
	c.WriteString(guards.String())
	for g, u := range used {
		if u {
			usedGuards = append(usedGuards, g)
		}
	}
	return []table{{"Orders", o.String()}, {"Cust", c.String()}}, usedGuards
}

// genWarmQueries is the 16-query σ/π/⋈ working set of warm_read.
func genWarmQueries(seed int64, sz sizes) []string {
	r := newRNG(seed, "warm-queries")
	qs := make([]string, 0, 16)
	for len(qs) < 16 {
		cust, item, region := custName(r.intn(sz.custs)), itemName(r.intn(sz.items)), regionName(r.intn(sz.regions))
		var q string
		switch len(qs) % 4 {
		case 0:
			q = fmt.Sprintf("select[$2 = '%s'](Orders)", cust)
		case 1:
			q = fmt.Sprintf("project[1,3](select[$2 = '%s'](Orders))", cust)
		case 2:
			q = fmt.Sprintf("project[1,5](select[$2 = '%s'](Orders) join[$2 = $4] Cust)", cust)
		case 3:
			q = fmt.Sprintf("project[1](select[$3 = '%s' && $5 = '%s'](Orders join[$2 = $4] Cust))", item, region)
		}
		if !slices.Contains(qs, q) {
			qs = append(qs, q)
		}
	}
	return qs
}

// genColdFamily is cold_compile's family of distinct query texts: selection
// constants drawn from the seed crossed with five shape templates (σ, π∘σ,
// σ⋈, ∪, −). Every text is distinct, so a cyclic replay longer than the plan
// cache never hits.
func genColdFamily(seed int64, sz sizes) []string {
	r := newRNG(seed, "cold-family")
	pairs := r.perm(sz.custs * sz.items)
	qs := make([]string, 0, sz.coldFamily)
	for k := 0; len(qs) < sz.coldFamily; k++ {
		cust, item := custName(pairs[k]/sz.items), itemName(pairs[k]%sz.items)
		region := regionName(pairs[k] % sz.regions)
		var q string
		switch k % 5 {
		case 0:
			q = fmt.Sprintf("select[$2 = '%s' || $3 = '%s' && $1 < %d](Orders)", cust, item, 1000+sz.orders/8)
		case 1:
			q = fmt.Sprintf("project[1,3](select[$2 = '%s' || $3 = '%s' && $1 < %d](Orders))", cust, item, 1000+sz.orders/8)
		case 2:
			q = fmt.Sprintf("project[1,5](select[$2 = '%s' || $3 = '%s' && $1 < %d](Orders) join[$2 = $4] Cust)", cust, item, 1000+sz.orders/8)
		case 3:
			q = fmt.Sprintf("project[2](select[$3 = '%s' && $1 < %d](Orders)) union project[1](select[$1 = '%s' || $2 = '%s' && $1 < '%s'](Cust))", item, 1000+sz.orders/4, cust, region, custName(sz.custs/8))
		case 4:
			q = fmt.Sprintf("project[2](select[$3 = '%s' && $1 < %d](Orders)) minus project[1](select[$1 = '%s' || $2 = '%s'](Cust))", item, 1000+sz.orders/4, cust, region)
		}
		qs = append(qs, q)
	}
	return qs
}

// genSensors builds R(sensor,room) and S(room,zone) with every row guarded
// by its own Bernoulli variable, so R ⋈ S projections carry lineage shared
// across answer tuples. One lineage's connected component is a room: its S
// guard plus its sensors' R guards.
func genSensors(seed int64, sz sizes) []table {
	r := newRNG(seed, "sensors")
	var rs, ss strings.Builder
	fmt.Fprintf(&rs, "table R arity 2\n")
	fmt.Fprintf(&ss, "table S arity 2\n")
	var rd, sd strings.Builder
	room := 0
	for z := 0; z < sz.zones; z++ {
		for k := 0; k < sz.roomsPerZone; k++ {
			fmt.Fprintf(&ss, "row 'rm%03d', 'z%02d' | s%d = 1\n", room, z, room)
			p := 60 + r.intn(39)
			fmt.Fprintf(&sd, "dist s%d = {0:0.%02d, 1:0.%02d}\n", room, 100-p, p)
			for j := 0; j < sz.sensorsPerRoom; j++ {
				n := room*sz.sensorsPerRoom + j
				fmt.Fprintf(&rs, "row 'sn%04d', 'rm%03d' | r%d = 1\n", n, room, n)
				p := 30 + r.intn(60)
				fmt.Fprintf(&rd, "dist r%d = {0:0.%02d, 1:0.%02d}\n", n, 100-p, p)
			}
			room++
		}
	}
	rs.WriteString(rd.String())
	ss.WriteString(sd.String())
	return []table{{"R", rs.String()}, {"S", ss.String()}}
}

// sensorPlans are whatif_marginals' eight warm plans: zone- and room-level
// projections of R ⋈ S whose lineage is shared across answer tuples.
func sensorPlans(seed int64, sz sizes) []string {
	r := newRNG(seed, "sensor-plans")
	rooms := sz.zones * sz.roomsPerZone
	z := func() string { return fmt.Sprintf("z%02d", r.intn(sz.zones)) }
	rm := func() string { return fmt.Sprintf("rm%03d", r.intn(rooms)) }
	return []string{
		"project[4](R join[$2 = $3] S)",
		"project[2](R)",
		"project[3,4](R join[$2 = $3] S)",
		fmt.Sprintf("project[4](select[$2 != '%s'](R) join[$2 = $3] S)", rm()),
		fmt.Sprintf("project[2](select[$2 != '%s'](R))", rm()),
		fmt.Sprintf("project[3](R join[$2 = $3] select[$2 != '%s'](S))", z()),
		fmt.Sprintf("project[4](R join[$2 = $3] select[$2 != '%s'](S))", z()),
		fmt.Sprintf("project[1,4](select[$2 != '%s'](R) join[$2 = $3] S)", rm()),
	}
}

// genOverrides renders the what-if request stream: each body re-weights four
// seed-drawn guard variables of R and, for plans that read S, two of S. (An
// override of a variable the plan's tables do not declare is a 400.)
func genOverrides(seed int64, sz sizes, plans []string) [][]byte {
	r := newRNG(seed, "overrides")
	rooms := sz.zones * sz.roomsPerZone
	out := make([][]byte, sz.overrides)
	for i := range out {
		var b strings.Builder
		fmt.Fprintf(&b, `{"query":%q,"engine":"auto","distributions":{`, plans[i%len(plans)])
		seen := map[string]bool{}
		readsS := strings.Contains(plans[i%len(plans)], "S)")
		for k := 0; k < 6; k++ {
			v := "r" + strconv.Itoa(r.intn(rooms*sz.sensorsPerRoom))
			if k >= 4 {
				v = "s" + strconv.Itoa(r.intn(rooms))
			}
			p := 5 + r.intn(90)
			if seen[v] || (k >= 4 && !readsS) {
				continue
			}
			if len(seen) > 0 {
				b.WriteByte(',')
			}
			seen[v] = true
			fmt.Fprintf(&b, `%q:{"0":0.%02d,"1":0.%02d}`, v, 100-p, p)
		}
		b.WriteString("}}")
		out[i] = []byte(b.String())
	}
	return out
}

// patchPlans are the eight warm plans of the patch workloads, all monotone
// (so every one is maintained, never force-recompiled) and all reading
// Orders. The first two select exactly the live patch rows, which makes their
// answers predictable from the patch stream alone; the rest put Orders on the
// probe spine (delta-append shapes) and on the build side or left of a union
// (re-evaluate shapes).
func patchPlans(seed int64, sz sizes) []string {
	r := newRNG(seed, "patch-plans")
	cust, item, region := func() string { return custName(r.intn(sz.custs)) }, func() string { return itemName(r.intn(sz.items)) }, func() string { return regionName(r.intn(sz.regions)) }
	return []string{
		fmt.Sprintf("project[1](select[$1 >= %d](Orders))", patchIDBase),
		fmt.Sprintf("project[1,3](select[$2 = 'cpatch' && $1 >= %d](Orders))", patchIDBase),
		fmt.Sprintf("project[3](select[$2 = '%s'](Orders))", cust()),
		fmt.Sprintf("select[$3 = '%s'](Orders) join[$2 = $4] Cust", item()),
		fmt.Sprintf("project[1,5](select[$3 = '%s'](Orders) join[$2 = $4] Cust)", item()),
		fmt.Sprintf("select[$2 = '%s'](Cust) join[$1 = $4] select[$3 = '%s'](Orders)", region(), item()),
		fmt.Sprintf("project[2](select[$3 = '%s'](Orders)) union project[1](select[$2 = '%s'](Cust))", item(), region()),
		fmt.Sprintf("project[1](select[$2 = '%s'](Cust)) union project[2](select[$3 = '%s'](Orders))", region(), item()),
	}
}

// numProbePlans is how many leading patchPlans have answers predictable from
// the patch stream (see liveSets).
const numProbePlans = 2

// liveCap is how many patch rows may be alive at once: ±1 % of the table.
func liveCap(rows int) int { return max(rows/100, 2) }

// genPatchStream renders a patch stream: 1-row scripts that upsert a fresh
// row (rendered by newRow from its id), or delete an earlier upsert, mixed by
// the seed so the live set hovers below limit (the table stays within ±1 %
// of its initial size) and both the insert-only delta-append path and the
// delete re-evaluate path run.
func genPatchStream(r *rng, n, limit int, newRow func(id int) string) []patchOp {
	ops := make([]patchOp, 0, n)
	type live struct {
		id  int
		row string
	}
	var alive []live
	next := patchIDBase
	for len(ops) < n {
		if len(alive) >= limit || (len(alive) > limit/2 && r.intn(2) == 0) {
			k := r.intn(len(alive))
			ops = append(ops, patchOp{body: "delete " + alive[k].row + "\n", id: alive[k].id, delete: true})
			alive = append(alive[:k], alive[k+1:]...)
			continue
		}
		row := newRow(next)
		ops = append(ops, patchOp{body: "upsert " + row + "\n", id: next})
		alive = append(alive, live{next, row})
		next++
	}
	return ops
}

// genPatches is the Orders patch stream. A quarter of the rows go to the
// customer 'cpatch' (the second probe plan selects them) and a quarter reuse
// a guard variable Orders already mentions; none adds a distribution, which
// would force recompiles.
func genPatches(seed int64, sz sizes, usedGuards []int) []patchOp {
	r := newRNG(seed, "patches")
	return genPatchStream(r, sz.patches, liveCap(sz.orders), func(id int) string {
		cust := custName(r.intn(sz.custs))
		if r.intn(4) == 0 {
			cust = "cpatch"
		}
		row := fmt.Sprintf("%d, '%s', '%s'", id, cust, itemName(r.intn(sz.items)))
		if r.intn(4) == 0 {
			row += fmt.Sprintf(" | g%d = 1", usedGuards[r.intn(len(usedGuards))])
		}
		return row
	})
}

// genSensorPatches is the patch stream against R of the sensor data set
// (rows guarded by an existing variable), used only by the traced run's
// write-path probes on whatif_marginals.
func genSensorPatches(seed int64, sz sizes) []patchOp {
	r := newRNG(seed, "sensor-patches")
	rooms := sz.zones * sz.roomsPerZone
	return genPatchStream(r, sz.patches, liveCap(rooms*sz.sensorsPerRoom), func(id int) string {
		return fmt.Sprintf("'sp%d', 'rm%03d' | r%d = 1", id, r.intn(rooms), r.intn(rooms*sz.sensorsPerRoom))
	})
}

// queryBody renders a plain POST /v1/query body.
func queryBody(q string) []byte {
	return []byte(fmt.Sprintf(`{"query":%q,"engine":"auto"}`, q))
}

func queryBodies(qs []string) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = queryBody(q)
	}
	return out
}

// input is everything one workload run sends: the catalog, the request
// bodies of the timed query stream (empty when the timed op is a patch), the
// warm plans (the distinct query texts behind those bodies, or the plans a
// patch workload keeps cached), and the patch stream.
type input struct {
	tables  []table
	plans   []string
	bodies  [][]byte
	patches []patchOp
	hash    string
}

// genInput builds the named workload's input from the seed. Every workload
// carries a patch stream against its first table, so the traced run can
// probe the write-path layers on any of them; only the patch workloads send
// it to the servers.
func genInput(workload string, seed int64, sz sizes) (*input, error) {
	in := &input{}
	var guards []int
	switch workload {
	case "warm_read":
		in.tables, guards = genOrders(seed, sz)
		in.plans = genWarmQueries(seed, sz)
		in.bodies = queryBodies(in.plans)
	case "cold_compile":
		in.tables, guards = genOrders(seed, sz)
		in.plans = genColdFamily(seed, sz)
		in.bodies = queryBodies(in.plans)
	case "whatif_marginals":
		in.tables = genSensors(seed, sz)
		in.plans = sensorPlans(seed, sz)
		in.bodies = genOverrides(seed, sz, in.plans)
		in.patches = genSensorPatches(seed, sz)
	case "patch_stream", "read_under_patch":
		// Maintenance costs O(table) per plan per patch, so the patch
		// workloads load a smaller cut of the same data set: at the read
		// workloads' size the writer completes too few patches for a p99.
		sz.orders, sz.custs = sz.patchOrders, sz.patchCusts
		in.tables, guards = genOrders(seed, sz)
		in.plans = patchPlans(seed, sz)
		in.bodies = queryBodies(in.plans)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if in.patches == nil {
		in.patches = genPatches(seed, sz, guards)
	}
	in.hash = in.digest()
	return in, nil
}

// digest hashes every byte the servers can receive, in a fixed order.
func (in *input) digest() string {
	h := sha256.New()
	for _, t := range in.tables {
		fmt.Fprintf(h, "table %s %d\n%s", t.name, len(t.script), t.script)
	}
	for _, p := range in.plans {
		fmt.Fprintf(h, "plan %s\n", p)
	}
	for _, b := range in.bodies {
		fmt.Fprintf(h, "body %s\n", b)
	}
	for _, p := range in.patches {
		fmt.Fprintf(h, "patch %s", p.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
