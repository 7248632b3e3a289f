// scalla-cli is the client tool for a running Scalla cluster.
//
//	scalla-cli -mgr host:1094 locate /store/f.root
//	scalla-cli -mgr host:1094 cat /store/f.root
//	scalla-cli -mgr host:1094 put /store/new.root local.bin
//	scalla-cli -mgr host:1094 stat /store/f.root
//	scalla-cli -mgr host:1094 rm /store/f.root
//	scalla-cli -mgr host:1094 prepare /store/a /store/b
//	scalla-cli -servers s1:3094,s2:3094 ls /store
//	scalla-cli -servers s1:3094,s2:3094 tree /
//	scalla-cli mon :9931          # tail daemons' summary streams (UDP)
//	scalla-cli -raw mon :9931     # same, raw JSON frames
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"scalla/internal/client"
	"scalla/internal/cmdutil"
	"scalla/internal/nsd"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scalla-cli [-mgr addr[,addr]] [-servers addrs] <locate|cat|put|stat|rm|prepare|status|ls|tree|mon> args...")
	os.Exit(2)
}

func main() {
	mgr := flag.String("mgr", "localhost:1094", "manager data address(es), comma separated")
	servers := flag.String("servers", "", "server data addresses for ls/tree (namespace ops)")
	raw := flag.Bool("raw", false, "mon: print raw JSON frames instead of one-liners")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	net := transport.TCP()

	switch args[0] {
	case "mon":
		need(args, 2)
		if err := mon(args[1], *raw, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	case "ls", "tree":
		if *servers == "" {
			log.Fatal("scalla-cli: ls/tree need -servers (the namespace is served by the NSD, not the manager)")
		}
		d := nsd.New(net, cmdutil.SplitList(*servers)...)
		prefix := "/"
		if len(args) > 1 {
			prefix = args[1]
		}
		if args[0] == "tree" {
			fmt.Print(d.Tree(prefix))
			return
		}
		for _, e := range d.List(prefix) {
			state := "online"
			if !e.Online {
				state = "offline"
			}
			fmt.Printf("%10d  %-7s  %s\n", e.Size, state, e.Path)
		}
		return
	}

	cl := client.New(client.Config{Net: net, Managers: cmdutil.SplitList(*mgr)})
	defer cl.Close()

	switch args[0] {
	case "locate":
		need(args, 2)
		addr, err := cl.Locate(args[1], false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(addr)
	case "cat":
		need(args, 2)
		data, err := cl.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
	case "put":
		need(args, 3)
		data, err := os.ReadFile(args[2])
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.WriteFile(args[1], data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), args[1])
	case "stat":
		need(args, 2)
		st, err := cl.Stat(args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d bytes, online=%v\n", args[1], st.Size, st.Online)
	case "rm":
		need(args, 2)
		if err := cl.Unlink(args[1]); err != nil {
			log.Fatal(err)
		}
	case "prepare":
		need(args, 2)
		if err := cl.Prepare(args[1:], false); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prepare queued for %d files\n", len(args)-1)
	case "status":
		// Ping the manager(s) and any -servers for liveness/load.
		targets := cmdutil.SplitList(*mgr)
		targets = append(targets, cmdutil.SplitList(*servers)...)
		for _, addr := range targets {
			load, free, err := ping(net, addr)
			if err != nil {
				fmt.Printf("%-24s DOWN (%v)\n", addr, err)
				continue
			}
			fmt.Printf("%-24s up  load=%-4d free=%d\n", addr, load, free)
		}
	default:
		usage()
	}
}

// ping sends a data-plane Ping and returns the Pong's load/free.
func ping(net transport.Network, addr string) (load uint32, free int64, err error) {
	c, err := net.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	if err := c.Send(proto.Marshal(proto.Ping{})); err != nil {
		return 0, 0, err
	}
	frame, err := c.Recv()
	if err != nil {
		return 0, 0, err
	}
	m, err := proto.Unmarshal(frame)
	if err != nil {
		return 0, 0, err
	}
	pong, ok := m.(proto.Pong)
	if !ok {
		return 0, 0, fmt.Errorf("unexpected reply %T", m)
	}
	return pong.Load, pong.Free, nil
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}
