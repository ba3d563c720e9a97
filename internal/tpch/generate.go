package tpch

import (
	"fmt"
	"math/rand"
)

// TPC-H SF1 base cardinalities; a Database is generated at these counts
// divided by Config.Scale (region and nation are fixed-size).
const (
	sf1Supplier = 10000
	sf1Part     = 200000
	sf1PartSupp = 800000
	sf1Customer = 150000
	sf1Orders   = 1500000
	sf1Lineitem = 6000000
)

// Date columns span the TPC-H window 1992-01-01 .. 1998-12-31, stored as
// days since 1992-01-01.
const (
	DateMin = 0.0
	DateMax = 2557.0
)

// Config controls database generation.
type Config struct {
	// Scale divides the TPC-H SF1 cardinalities; Scale=100 yields a 60k-row
	// lineitem. Must be >= 1.
	Scale int
	// Seed drives all randomness; equal seeds produce identical databases.
	Seed int64
}

// DefaultConfig is the configuration used throughout the experiments:
// 1/100 of TPC-H SF1, matching the paper's setup qualitatively while
// keeping experiment runtimes laptop-friendly.
func DefaultConfig() Config { return Config{Scale: 100, Seed: 2012} }

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22",
		"Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41"}
	types   = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	nations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
		"KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
)

// Generate builds the database described by cfg.
func Generate(cfg Config) (*Database, error) {
	if cfg.Scale < 1 {
		return nil, fmt.Errorf("tpch: scale must be >= 1, got %d", cfg.Scale)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := &Database{Tables: make(map[string]*Table), Scale: cfg.Scale, Seed: cfg.Seed}

	nSupp := max(sf1Supplier/cfg.Scale, 10)
	nPart := max(sf1Part/cfg.Scale, 40)
	nPartSupp := max(sf1PartSupp/cfg.Scale, 160)
	nCust := max(sf1Customer/cfg.Scale, 15)
	nOrders := max(sf1Orders/cfg.Scale, 150)
	nLine := max(sf1Lineitem/cfg.Scale, 600)

	// gaussDate draws the artificial x_date values: Gaussian over the
	// TPC-H date window, clamped, per the paper's Appendix A.
	gaussDate := func() float64 {
		v := (DateMin+DateMax)/2 + rng.NormFloat64()*(DateMax-DateMin)/6
		if v < DateMin {
			v = DateMin
		}
		if v > DateMax {
			v = DateMax
		}
		return v
	}
	uniformDate := func() float64 { return DateMin + rng.Float64()*(DateMax-DateMin) }

	// region
	{
		key := numCol("r_regionkey", 5)
		name := strCol("r_name", 5)
		date := numCol("r_date", 5)
		for i := 0; i < 5; i++ {
			key.Nums[i] = float64(i)
			name.Strs[i] = regions[i]
			date.Nums[i] = gaussDate()
		}
		db.Tables["region"] = NewTable("region", key, name, date)
	}

	// nation
	{
		key := numCol("n_nationkey", 25)
		name := strCol("n_name", 25)
		rkey := numCol("n_regionkey", 25)
		date := numCol("n_date", 25)
		for i := 0; i < 25; i++ {
			key.Nums[i] = float64(i)
			name.Strs[i] = nations[i]
			rkey.Nums[i] = float64(i % 5)
			date.Nums[i] = gaussDate()
		}
		db.Tables["nation"] = NewTable("nation", key, name, rkey, date)
	}

	// supplier
	{
		key := numCol("s_suppkey", nSupp)
		nkey := numCol("s_nationkey", nSupp)
		bal := numCol("s_acctbal", nSupp)
		date := numCol("s_date", nSupp)
		for i := 0; i < nSupp; i++ {
			key.Nums[i] = float64(i + 1)
			nkey.Nums[i] = float64(rng.Intn(25))
			bal.Nums[i] = -999.99 + rng.Float64()*10998.98
			date.Nums[i] = gaussDate()
		}
		db.Tables["supplier"] = NewTable("supplier", key, nkey, bal, date)
	}

	// part
	{
		key := numCol("p_partkey", nPart)
		size := numCol("p_size", nPart)
		price := numCol("p_retailprice", nPart)
		brand := strCol("p_brand", nPart)
		ptype := strCol("p_type", nPart)
		date := numCol("p_date", nPart)
		for i := 0; i < nPart; i++ {
			key.Nums[i] = float64(i + 1)
			size.Nums[i] = float64(1 + rng.Intn(50))
			price.Nums[i] = 900 + float64(i+1)/10 + float64(rng.Intn(1000))/10
			brand.Strs[i] = brands[rng.Intn(len(brands))]
			ptype.Strs[i] = types[rng.Intn(len(types))]
			date.Nums[i] = gaussDate()
		}
		db.Tables["part"] = NewTable("part", key, size, price, brand, ptype, date)
	}

	// partsupp: each part has nPartSupp/nPart suppliers.
	{
		pkey := numCol("ps_partkey", nPartSupp)
		skey := numCol("ps_suppkey", nPartSupp)
		qty := numCol("ps_availqty", nPartSupp)
		cost := numCol("ps_supplycost", nPartSupp)
		date := numCol("ps_date", nPartSupp)
		perPart := max(nPartSupp/nPart, 1)
		for i := 0; i < nPartSupp; i++ {
			pkey.Nums[i] = float64(i/perPart%nPart + 1)
			skey.Nums[i] = float64(rng.Intn(nSupp) + 1)
			qty.Nums[i] = float64(1 + rng.Intn(9999))
			cost.Nums[i] = 1 + rng.Float64()*999
			date.Nums[i] = gaussDate()
		}
		db.Tables["partsupp"] = NewTable("partsupp", pkey, skey, qty, cost, date)
	}

	// customer
	{
		key := numCol("c_custkey", nCust)
		nkey := numCol("c_nationkey", nCust)
		bal := numCol("c_acctbal", nCust)
		seg := strCol("c_mktsegment", nCust)
		date := numCol("c_date", nCust)
		for i := 0; i < nCust; i++ {
			key.Nums[i] = float64(i + 1)
			nkey.Nums[i] = float64(rng.Intn(25))
			bal.Nums[i] = -999.99 + rng.Float64()*10998.98
			seg.Strs[i] = segments[rng.Intn(len(segments))]
			date.Nums[i] = gaussDate()
		}
		db.Tables["customer"] = NewTable("customer", key, nkey, bal, seg, date)
	}

	// orders
	{
		key := numCol("o_orderkey", nOrders)
		ckey := numCol("o_custkey", nOrders)
		price := numCol("o_totalprice", nOrders)
		odate := numCol("o_orderdate", nOrders)
		prio := strCol("o_orderpriority", nOrders)
		date := numCol("o_date", nOrders)
		for i := 0; i < nOrders; i++ {
			key.Nums[i] = float64(i + 1)
			ckey.Nums[i] = float64(rng.Intn(nCust) + 1)
			price.Nums[i] = 800 + rng.Float64()*500000*rng.Float64()
			odate.Nums[i] = uniformDate()
			prio.Strs[i] = priorities[rng.Intn(len(priorities))]
			date.Nums[i] = gaussDate()
		}
		db.Tables["orders"] = NewTable("orders", key, ckey, price, odate, prio, date)
	}

	// lineitem: lines per order approximately uniform 1..7 (avg 4, as in TPC-H).
	{
		okey := numCol("l_orderkey", 0)
		pkey := numCol("l_partkey", 0)
		skey := numCol("l_suppkey", 0)
		lnum := numCol("l_linenumber", 0)
		qty := numCol("l_quantity", 0)
		price := numCol("l_extendedprice", 0)
		disc := numCol("l_discount", 0)
		sdate := numCol("l_shipdate", 0)
		date := numCol("l_date", 0)
		orderDates := db.Tables["orders"].MustColumn("o_orderdate").Nums
		produced := 0
		for o := 0; o < nOrders && produced < nLine; o++ {
			lines := 1 + rng.Intn(7)
			for l := 0; l < lines && produced < nLine; l++ {
				okey.Nums = append(okey.Nums, float64(o+1))
				pkey.Nums = append(pkey.Nums, float64(rng.Intn(nPart)+1))
				skey.Nums = append(skey.Nums, float64(rng.Intn(nSupp)+1))
				lnum.Nums = append(lnum.Nums, float64(l+1))
				qty.Nums = append(qty.Nums, float64(1+rng.Intn(50)))
				price.Nums = append(price.Nums, 900+rng.Float64()*100000)
				disc.Nums = append(disc.Nums, float64(rng.Intn(11))/100)
				ship := orderDates[o] + 1 + rng.Float64()*121
				if ship > DateMax {
					ship = DateMax
				}
				sdate.Nums = append(sdate.Nums, ship)
				date.Nums = append(date.Nums, gaussDate())
				produced++
			}
		}
		db.Tables["lineitem"] = NewTable("lineitem",
			okey, pkey, skey, lnum, qty, price, disc, sdate, date)
	}

	if err := buildStandardIndexes(db); err != nil {
		return nil, err
	}
	return db, nil
}

// MustGenerate is like Generate but panics on error.
func MustGenerate(cfg Config) *Database {
	db, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// StandardIndexColumns lists the indexed columns per table: primary keys,
// foreign keys, and the artificially added date columns, matching the
// paper's Appendix A setup (plus l_shipdate and o_orderdate, which TPC-H
// workloads conventionally index).
var StandardIndexColumns = map[string][]string{
	"region":   {"r_regionkey", "r_date"},
	"nation":   {"n_nationkey", "n_regionkey", "n_date"},
	"supplier": {"s_suppkey", "s_nationkey", "s_date"},
	"part":     {"p_partkey", "p_date"},
	"partsupp": {"ps_partkey", "ps_suppkey", "ps_date"},
	"customer": {"c_custkey", "c_nationkey", "c_date"},
	"orders":   {"o_orderkey", "o_custkey", "o_orderdate", "o_date"},
	"lineitem": {"l_orderkey", "l_partkey", "l_suppkey", "l_shipdate", "l_date"},
}

func buildStandardIndexes(db *Database) error {
	for table, cols := range StandardIndexColumns {
		t := db.Table(table)
		if t == nil {
			return fmt.Errorf("tpch: missing table %s", table)
		}
		for _, col := range cols {
			if err := t.BuildIndex(col); err != nil {
				return err
			}
		}
	}
	return nil
}

func numCol(name string, n int) *Column {
	return &Column{Name: name, Kind: KindNumeric, Nums: make([]float64, n)}
}

func strCol(name string, n int) *Column {
	return &Column{Name: name, Kind: KindString, Strs: make([]string, n)}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
